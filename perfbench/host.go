package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint describes the host a result was measured on: CPU count,
// GOMAXPROCS, Go version, kernel, CPU model and the run's seed.
func fingerprint(seed int64) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d go=%s kernel=%s cpu=%q seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, cpuModel(), seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
