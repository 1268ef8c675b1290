// Command nmbench regenerates the paper's evaluation (§4): Fig. 5 (small
// message offloading), Fig. 6 (rendezvous progression), Table 1 (the
// convolution meta-application), and the design ablations listed in
// docs/PERF.md, "Evaluation and ablations".
//
// Usage:
//
//	nmbench -experiment fig5|fig6|table1|ablation|all [-quick] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pioman/internal/exp"
	"pioman/internal/stats"
)

func main() {
	experiment := flag.String("experiment", "all", "fig5, fig6, table1, ablation, or all")
	quick := flag.Bool("quick", false, "reduced iteration counts (smoke test)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	exp.Quick = *quick

	run := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		run[strings.TrimSpace(e)] = true
	}
	all := run["all"]

	did := false
	if all || run["fig5"] {
		did = true
		pts := exp.RunFig5()
		if *csv {
			emitOverlapCSV("fig5", pts)
		} else {
			fmt.Println(exp.FormatOverlap(pts, "Figure 5: small messages offloading (isend + 20µs compute + swait)"))
		}
	}
	if all || run["fig6"] {
		did = true
		pts := exp.RunFig6()
		if *csv {
			emitOverlapCSV("fig6", pts)
		} else {
			fmt.Println(exp.FormatOverlap(pts, "Figure 6: rendezvous progression (isend + 100µs compute + swait)"))
		}
	}
	if all || run["table1"] {
		did = true
		rows := exp.RunTable1()
		if *csv {
			fmt.Println("experiment,threads,no_offload_us,offload_us,speedup_pct")
			for _, r := range rows {
				fmt.Printf("table1,%d,%.1f,%.1f,%.1f\n",
					r.Threads, stats.US(r.NoOffload), stats.US(r.Offload), r.SpeedupPct)
			}
		} else {
			fmt.Println(exp.FormatTable1(rows))
		}
	}
	if all || run["ablation"] {
		did = true
		fmt.Println(exp.FormatAblation("Ablation: Isend return time, 16K eager message (§2.2)",
			exp.RunAblationOffload(16<<10)))
		fmt.Println(exp.FormatAblation("Ablation: 16 x 512B burst to one destination (strategy)",
			exp.RunAblationStrategy(16, 512)))
		fmt.Println(exp.FormatAblation("Ablation: 64K exchange with all cores computing (blocking fallback)",
			exp.RunAblationBlocking(64<<10)))
		fmt.Println(exp.FormatAblation("Ablation: adaptive offload policy, 16K exchange (§5 future work)",
			exp.RunAblationAdaptive(16<<10)))
	}
	if !did {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig5, fig6, table1, ablation, all)\n", *experiment)
		os.Exit(2)
	}
}

func emitOverlapCSV(name string, pts []exp.OverlapPoint) {
	fmt.Println("experiment,size_bytes,reference_us,no_offload_us,offload_us")
	for _, p := range pts {
		fmt.Printf("%s,%d,%.2f,%.2f,%.2f\n", name, p.Size,
			stats.US(p.Reference), stats.US(p.Sequential), stats.US(p.Offload))
	}
}
