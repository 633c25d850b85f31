// Command bench is the repository's one benchmark: the system response time
// of a Run and the per-edge formulation latency a session sees, on four
// workloads, through the public service and store functions only. README.md
// says what each metric means, which layer should move which, and why the
// runs are shaped the way they are.
//
//	go run ./bench -workload formulate-mono            # end-to-end metrics
//	go run ./bench -workload formulate-mono -trace 1   # per-layer metrics
//	go run ./bench -repeat 3                           # repeatability check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"prague/internal/dataset"
)

const (
	defaultSeed  = 20120401 // ICDE 2012
	reservedSeed = 7919     // kept unused while a change is written, for checking its claim afterwards
	setups       = 3        // set-ups per run; setup_s is their median
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// atSpeed brings a value measured on a host of the given speed to reference
// speed: a duration is divided by it, a rate multiplied.
func (m metric) atSpeed(speed float64) metric {
	switch m.Unit {
	case "s", "ms", "us", "ns":
		m.Value /= speed
	case "1/s":
		m.Value *= speed
	}
	return m
}

// outcome is the last line of standard output, as the benchmark contract
// fixes it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what precedes it: the host, the inputs and the sample sizes the
// numbers stand on.
type report struct {
	Workload         string   `json:"workload"`
	Seed             int64    `json:"seed"`
	Traced           bool     `json:"traced"`
	NumCPU           int      `json:"num_cpu"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	GoVersion        string   `json:"go_version"`
	Kernel           string   `json:"kernel"`
	ScheduleDigest   string   `json:"schedule_digest"`
	ResultDigest     string   `json:"result_digest"`
	Rounds           int      `json:"rounds"`
	SessionsPerRound int      `json:"sessions_per_round"`
	EdgeSamples      int      `json:"edge_samples_per_round"`
	SrtSamples       int      `json:"srt_samples_per_round"`
	ModifySamples    int      `json:"modify_samples_per_round"`
	MutationSamples  int      `json:"mutation_samples_per_round"`
	BeyondP95        int      `json:"srt_samples_beyond_p95"`
	ContainmentShare float64  `json:"containment_run_share"`
	HostSpeed        float64  `json:"host_speed"` // median speedometer reading; value × host_speed is what the clock said
	FirstError       string   `json:"first_error,omitempty"`
	Variants         []string `json:"variants"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "seed of the op schedule, the only workload argument")
	seconds := flag.Int("seconds", defaultSeconds, "nominal length of the timed part; it fixes the number of rounds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, file the benchmark's spans are written to as JSON lines")
	repeat := flag.Int("repeat", 0, "run this many complete sets back to back and compare their medians with the bounds")
	flag.Parse()

	// Design rule 4: the same parallelism and collector setting on every host.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)

	var err error
	switch {
	case *repeat > 0:
		err = repeatSets(*repeat, *seed, *seconds)
	default:
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		var rep *report
		var out *outcome
		if rep, out, err = runWorkload(sp, *seed, *seconds, *traced == 1, *traceOut); err == nil {
			printJSON(rep)
			printJSON(out)
			if !out.Correct {
				err = fmt.Errorf("%d of %d operations failed; first: %s", out.Failed, out.Attempted, rep.FirstError)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the types above always marshal
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// runWorkload is one run of the contract: inputs from the seed, set-up,
// warm-up with the oracle check, the timed rounds, the metrics.
func runWorkload(sp *spec, seed int64, seconds int, traced bool, traceOut string) (*report, *outcome, error) {
	db, err := dataset.Molecules(sp.data)
	if err != nil {
		return nil, nil, err
	}
	pool, err := sp.pool(db)
	if err != nil {
		return nil, nil, err
	}
	sched, err := newSchedule(sp, pool, seed)
	if err != nil {
		return nil, nil, err
	}

	var fwd *forwarders
	if traced && sp.layout == layoutRemote {
		fwd = &forwarders{}
		defer fwd.close()
	}
	meter := newSpeedometer(sp.speedWeights())
	var top *topology
	var times []setupTimes
	for i := 0; i < setups; i++ {
		if top != nil {
			top.close()
		}
		if top, err = setup(sp, db, traced, fwd.via()); err != nil {
			return nil, nil, err
		}
		times = append(times, top.times)
	}
	defer top.close()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	rounds := sp.roundsFor(seconds)
	c := newClient(top.svc, sched, meter)
	resultDigest, err := warmUp(c, top.st)
	if err != nil {
		return nil, nil, err
	}
	if c.failed == 0 {
		if err := sched.checkModes(); err != nil {
			c.fail(err)
		}
	}

	rep := &report{
		Workload: sp.name, Seed: seed, Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Kernel: kernel(),
		ScheduleDigest: sched.digest, ResultDigest: resultDigest,
		Rounds: rounds, SessionsPerRound: len(sched.ops),
		EdgeSamples: sched.edges, SrtSamples: len(sched.ops), ModifySamples: sched.modifies, MutationSamples: mutationBlock,
		BeyondP95: len(sched.ops) - 1 - rank(len(sched.ops), 95),
	}
	rep.ContainmentShare = sched.containmentShare()
	for _, v := range sched.variants {
		rep.Variants = append(rep.Variants, fmt.Sprintf("%s similarity=%v results=%d srt=%v modify=%v", v, v.similarity, v.results, v.warmSRT.Round(time.Microsecond), v.warmModify.Round(time.Microsecond)))
	}

	out := &outcome{Metrics: map[string]metric{}}
	if c.failed == 0 {
		if traced {
			if err := tracedRun(top, c, fwd, times, rounds, traceOut, out.Metrics); err != nil {
				return nil, nil, err
			}
		} else {
			perRound := make([][]float64, numTimings)
			for r := 0; r < rounds; r++ {
				for i, v := range c.round() {
					perRound[i] = append(perRound[i], v)
				}
			}
			var total []float64
			for _, t := range times {
				total = append(total, t.total.Seconds())
			}
			_, setupS, _ := quartiles(total)
			out.Metrics["setup_s"] = metric{setupS, "s"}
			out.Metrics["store_heap_mb"] = metric{heapMB, "MB"}
			for i, name := range timingNames {
				v, _ := estimate(perRound[i]) // the traced run reports the spread
				out.Metrics[name] = metric{v, timingUnit(name)}
			}
		}
		c.checkCounters(top)
		// Design rule 8: what the clock read becomes what it would have read
		// on the reference host.
		rep.HostSpeed = meter.median()
		for name, m := range out.Metrics {
			out.Metrics[name] = m.atSpeed(rep.HostSpeed)
		}
		if traced {
			out.Metrics["host.speed"] = metric{rep.HostSpeed, "ratio"}
		}
	}
	out.Attempted, out.Failed, out.Correct = c.attempted, c.failed, c.failed == 0
	if c.firstErr != nil {
		rep.FirstError = c.firstErr.Error()
	}
	return rep, out, nil
}

func timingUnit(name string) string {
	if name == "sessions_per_s" {
		return "1/s"
	}
	return "us"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return runtime.GOOS + " " + strings.TrimSpace(string(b))
}

// repeatSets is the repeatability check: n complete sets of the four
// workloads, each run a process of its own as the driver runs them, and for
// every workload/metric pair the largest relative deviation between two set
// values next to its bound.
func repeatSets(n int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	values := map[string][]float64{} // "workload/metric" -> one value per set
	for set := 0; set < n; set++ {
		for _, sp := range specs {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set, sp.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			var out outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				return fmt.Errorf("set %d, %s: %w", set, sp.name, err)
			}
			for name, m := range out.Metrics {
				key := sp.name + "/" + name
				values[key] = append(values[key], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d %s done\n", set, sp.name)
		}
	}
	keys := slices.Sorted(maps.Keys(values))
	fmt.Printf("%-34s %12s %12s %9s %7s\n", "workload/metric", "min", "max", "deviation", "bound")
	var over []string
	for _, k := range keys {
		lo, hi := slices.Min(values[k]), slices.Max(values[k])
		dev := (hi - lo) / lo
		bound := bounds[k[strings.Index(k, "/")+1:]]
		mark := ""
		if dev > bound {
			mark = "  OVER"
			over = append(over, k)
		}
		fmt.Printf("%-34s %12.4f %12.4f %8.2f%% %6.0f%%%s\n", k, lo, hi, 100*dev, 100*bound, mark)
	}
	if len(over) > 0 {
		return fmt.Errorf("%d of %d workload/metric pairs deviate by more than their bound: %s", len(over), len(keys), strings.Join(over, ", "))
	}
	return nil
}

// readBounds reads the regression bound of every end-to-end metric from
// BENCHMARK.json, where the contract fixes them.
func readBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
