package ptime

import "time"

// CostModel converts data sizes into CPU time for the host-side operations
// the paper discusses: memory copies into registered buffers, PIO
// programmed-I/O transfers, and fixed per-operation overheads. All values
// default to the MYRI-10G-era constants listed in docs/PERF.md
// ("Evaluation and ablations") but are configurable so that ablation
// benchmarks can explore other regimes.
type CostModel struct {
	// CopyBytesPerUS is the host memcpy throughput in bytes per
	// microsecond (2.5 GB/s ≈ 2500 B/µs).
	CopyBytesPerUS float64
	// PIOBytesPerUS is the programmed-I/O throughput. PIO writes each
	// word through the CPU, considerably slower than a cached memcpy.
	PIOBytesPerUS float64
	// SubmitOverhead is the fixed cost of preparing and posting one
	// network request (descriptor setup, doorbell).
	SubmitOverhead time.Duration
	// DMASetup is the fixed cost of programming a zero-copy DMA
	// transfer (memory registration is assumed cached, as under MX).
	DMASetup time.Duration
}

// DefaultCostModel mirrors the paper's testbed: host copies at 2.5 GB/s,
// PIO at 0.5 GB/s, ~0.4 µs request posting, ~1 µs DMA programming.
func DefaultCostModel() CostModel {
	return CostModel{
		CopyBytesPerUS: 2500,
		PIOBytesPerUS:  500,
		SubmitOverhead: 400 * time.Nanosecond,
		DMASetup:       1 * time.Microsecond,
	}
}

// CopyCost returns the CPU time to copy n bytes at memcpy speed.
func (c CostModel) CopyCost(n int) time.Duration {
	if n <= 0 || c.CopyBytesPerUS <= 0 {
		return 0
	}
	return time.Duration(float64(n) / c.CopyBytesPerUS * float64(time.Microsecond))
}

// PIOCost returns the CPU time to push n bytes through programmed I/O.
func (c CostModel) PIOCost(n int) time.Duration {
	if n <= 0 || c.PIOBytesPerUS <= 0 {
		return 0
	}
	return time.Duration(float64(n) / c.PIOBytesPerUS * float64(time.Microsecond))
}

// ChargeCopy burns CPU for a copy of n bytes on the calling goroutine.
func (c CostModel) ChargeCopy(n int) { SpinFor(c.CopyCost(n)) }

// ChargePIO burns CPU for a PIO transfer of n bytes.
func (c CostModel) ChargePIO(n int) { SpinFor(c.PIOCost(n)) }
