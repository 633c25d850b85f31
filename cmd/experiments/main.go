// Command experiments reproduces the paper's evaluation: every table and
// figure of §VIII plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	experiments -exp all                 # everything, default scale 0.05
//	experiments -exp table2,fig9fi      # a subset
//	experiments -exp fig10a -scale 0.1  # bigger datasets
//
// Scale 1.0 corresponds to the paper's dataset sizes (AIDS 40K graphs,
// synthetic 10K-80K); the default 0.05 finishes on a laptop in minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prague/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment names, or 'all' (known: "+strings.Join(experiments.Names(), ", ")+")")
		scale = flag.Float64("scale", 0.05, "dataset scale relative to the paper (1.0 = AIDS 40K graphs)")
		seed  = flag.Int64("seed", 42, "seed for dataset generation and query selection")
		sigma = flag.Int("sigma", 3, "default subgraph distance threshold σ")
	)
	flag.Parse()

	suite := experiments.New(experiments.Config{
		Scale: *scale,
		Seed:  *seed,
		Sigma: *sigma,
		Out:   os.Stdout,
	})

	start := time.Now()
	var err error
	if *exp == "all" {
		err = suite.RunAll()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if err = suite.Run(strings.TrimSpace(name)); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %v (scale %.3g, seed %d, σ=%d)\n", time.Since(start).Round(time.Millisecond), *scale, *seed, *sigma)
}
