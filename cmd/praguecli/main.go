// Command praguecli is an interactive, terminal-based stand-in for the
// paper's visual interface: it formulates a query one action at a time and
// shows what the blended engine computes after each action — the Status
// column of the paper's Figure 3 — plus similarity fallback, modification
// suggestions, and ranked results.
//
// The CLI runs on the concurrent session service (prague.NewService) over a
// store that -shards partitions and -connect dials: the interactive session
// is one managed session, so `run` refuses until a pending Modify-or-SimQuery
// choice is resolved, and `metrics` shows what the service measured so far.
//
// Usage:
//
//	praguecli -db aids.txt -index ./aids-index -sigma 3
//	praguecli -generate 1000            # self-contained demo database
//	praguecli -connect 127.0.0.1:7701,127.0.0.1:7702
//	                                    # serve sessions from a remote
//	                                    # shard-server topology (see
//	                                    # cmd/shardserver)
//
// Commands:
//
//	node <label>       add a node, prints its id
//	edge <u> <v> [lbl] draw an edge between node ids (optional bond label)
//	sim                continue as a similarity query (after an empty Rq)
//	suggest            ask which edge to delete
//	delete <step>      delete the edge drawn at the given step
//	status             show the current session state
//	run                execute the query and print ranked results
//	explain <id>       show how a data graph matches (MCCS highlighting)
//	metrics            print the service metrics snapshot as JSON, plus a
//	                   per-phase latency breakdown fed by trace spans
//	trace              print the SRT breakdown of the last run and the
//	                   slowest recorded actions (the slow journal)
//	slo                print the rolling-window SLO report: per-phase and
//	                   per-stage latency windows, shed/admit rates, and
//	                   burn rates
//	shards             print per-shard endpoint health of the remote
//	                   topology (-connect only)
//	quit
//
// Tracing is on by default (disable with -trace=false); -slow sets the
// slow-journal admission threshold, and -ops serves /healthz, /metrics
// (JSON, or Prometheus text with ?format=prom), /slo, /trace/slow, and
// /debug/pprof on the given address. -slo declares a p99 SRT target and
// turns the rolling-window SLO telemetry on.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"prague/internal/core"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"

	prague "prague"
)

func main() {
	var (
		dbPath   = flag.String("db", "", "graph database in gSpan text format")
		indexDir = flag.String("index", "", "persisted index directory (built on the fly if empty)")
		generate = flag.Int("generate", 0, "generate an AIDS-like demo database of this size instead of -db")
		sigma    = flag.Int("sigma", 3, "subgraph distance threshold σ")
		alpha    = flag.Float64("alpha", 0.1, "α for on-the-fly index construction")
		workers  = flag.Int("workers", 0, "verification worker pool size (0 = GOMAXPROCS)")
		traceOn  = flag.Bool("trace", true, "record per-action span trees (SRT breakdowns, slow journal)")
		slow     = flag.Duration("slow", 0, "slow-journal admission threshold (0 journals every traced action)")
		opsAddr  = flag.String("ops", "", "serve the ops/debug HTTP surface on this address (e.g. 127.0.0.1:6060)")
		shards   = flag.Int("shards", 1, "hash-partition the database and indexes into this many shards (1 = monolithic)")
		sloP99   = flag.Duration("slo", 0, "declare a p99 SRT target and enable rolling-window SLO telemetry (the 'slo' command and /slo)")
		connect  = flag.String("connect", "", "comma-separated shardserver endpoints: serve from the remote topology instead of a local database")
	)
	flag.Parse()

	// The store picks the layout; a dialed one closes after the service.
	var st prague.GraphStore
	if *connect != "" {
		endpoints := strings.Split(*connect, ",")
		for i := range endpoints {
			endpoints[i] = strings.TrimSpace(endpoints[i])
		}
		var err error
		if st, err = prague.DialStore(context.Background(), endpoints); err != nil {
			fail(err)
		}
		defer st.(io.Closer).Close()
		fmt.Printf("connected: %d endpoints, %d shards, %d graphs, tag %s\n",
			len(endpoints), st.NumShards(), st.NumGraphs(), st.CacheTag())
	} else {
		graphs, err := loadGraphs(*dbPath, *generate)
		if err != nil {
			fail(err)
		}
		db, err := prague.NewDatabase(graphs)
		if err != nil {
			fail(err)
		}
		fmt.Printf("database: %d graphs\n", db.Len())

		var idx *index.Set
		if *indexDir != "" {
			idx, err = index.Load(*indexDir)
		} else {
			fmt.Println("mining indexes (use -index to load persisted ones)...")
			var mined *mining.Result
			mined, err = mining.Mine(db.Graphs(), mining.Options{MinSupportRatio: *alpha, MaxSize: 6, IncludeZeroSupportPairs: true})
			if err == nil {
				idx, err = index.Build(mined, *alpha, 4)
			}
		}
		if err != nil {
			fail(err)
		}
		if st, err = prague.NewStore(db, idx, *shards); err != nil {
			fail(err)
		}
		fmt.Printf("store: %d shards\n", st.NumShards())
	}

	opts := []prague.Option{
		prague.WithSigma(*sigma),
		prague.WithVerifyWorkers(*workers),
		prague.WithTracing(*traceOn),
	}
	if *slow > 0 {
		opts = append(opts, prague.WithSlowThreshold(*slow))
	}
	if *opsAddr != "" {
		opts = append(opts, prague.WithOpsServer(*opsAddr))
	}
	if *sloP99 > 0 {
		opts = append(opts, prague.WithSLO(*sloP99, 0))
	}
	svc, err := prague.NewService(st, opts...)
	if err != nil {
		fail(err)
	}
	defer svc.Close()
	if *opsAddr != "" {
		fmt.Printf("ops server: http://%s (/healthz /metrics /trace/slow /debug/pprof)\n", svc.OpsAddr())
	}

	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		fail(err)
	}

	fmt.Println("ready. type 'help' for commands.")
	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("prague> "); sc.Scan(); fmt.Print("prague> ") {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "help":
			fmt.Println("commands: node <label> | edge <u> <v> [lbl] | sim | suggest | delete <step> | status | run | explain <id> | metrics | trace | slo | shards | quit")
		case "node":
			if len(fields) != 2 {
				fmt.Println("usage: node <label>")
				continue
			}
			id, err := ss.AddNode(fields[1])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("node %d (%s)\n", id, fields[1])
		case "edge":
			if len(fields) != 3 && len(fields) != 4 {
				fmt.Println("usage: edge <u> <v> [label]")
				continue
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Println("edge endpoints must be node ids")
				continue
			}
			label := ""
			if len(fields) == 4 {
				label = fields[3]
			}
			out, err := ss.AddLabeledEdge(ctx, u, v, label)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printOutcome(out)
		case "sim":
			out, err := ss.ChooseSimilarity(ctx)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printOutcome(out)
		case "suggest":
			sug, err := ss.SuggestDeletion()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("suggestion: delete e%d (yields %d exact candidates)\n", sug.Step, sug.Candidates)
		case "delete":
			if len(fields) != 2 {
				fmt.Println("usage: delete <step>")
				continue
			}
			step, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("step must be a number")
				continue
			}
			out, derr := ss.DeleteEdge(ctx, step)
			if derr != nil {
				fmt.Println("error:", derr)
				continue
			}
			printOutcome(out)
		case "status":
			info, err := ss.Describe()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("session %s: |q|=%d steps=%v similarity=%v awaiting-choice=%v |Rq|=%d Rfree=%d Rver=%d total=%d\n",
				info.ID, info.QuerySize, info.Steps, info.SimilarityMode, info.AwaitingChoice,
				info.ExactCount, info.FreeCount, info.VerCount, info.TotalCount)
		case "spig":
			dump, err := ss.SpigDump()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(dump)
		case "explain":
			if len(fields) != 2 {
				fmt.Println("usage: explain <graph id>")
				continue
			}
			gid, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("graph id must be a number")
				continue
			}
			m, merr := ss.Explain(gid)
			if merr != nil {
				fmt.Println("error:", merr)
				continue
			}
			fmt.Printf("graph %d at distance %d: matched edges %v, missing %v\n",
				m.GraphID, m.Distance, m.MatchedSteps, m.MissingSteps)
			fmt.Printf("  node map (query node -> data node): %v\n", m.NodeMap)
		case "run":
			results, err := ss.Run(ctx)
			if err != nil {
				if errors.Is(err, prague.ErrAwaitingChoice) {
					fmt.Println("no exact match left — resolve the choice first: 'sim' to continue approximately, or 'suggest'/'delete' to modify")
				} else {
					fmt.Println("error:", err)
				}
				continue
			}
			info, _ := ss.Describe()
			fmt.Printf("%d results (SRT %v):\n", len(results), info.SRT.Round(10_000))
			for i, r := range results {
				if i == 20 {
					fmt.Printf("  ... and %d more\n", len(results)-20)
					break
				}
				fmt.Printf("  graph %d  distance %d\n", r.GraphID, r.Distance)
			}
		case "metrics":
			if err := renderMetrics(os.Stdout, svc.Snapshot()); err != nil {
				fmt.Println("error:", err)
				continue
			}
		case "trace":
			rep, err := ss.TraceReport()
			if err != nil {
				if errors.Is(err, prague.ErrNoTrace) {
					fmt.Println("no traced run yet — execute 'run' first (tracing must be on: -trace)")
				} else {
					fmt.Println("error:", err)
				}
				continue
			}
			renderTrace(os.Stdout, rep, svc.SlowSpans())
		case "shards":
			hr := svc.ShardHealth()
			if hr == nil {
				fmt.Println("in-process store — no remote shard topology (use -connect)")
				continue
			}
			for _, h := range hr {
				fmt.Printf("shard %d: %d/%d endpoints healthy\n", h.Shard, h.Healthy, h.Endpoints)
			}
		case "slo":
			renderSLO(os.Stdout, svc.SLOReport())
		case "quit", "exit":
			return
		default:
			fmt.Printf("unknown command %q (try 'help')\n", fields[0])
		}
	}
}

func printOutcome(out core.StepOutcome) {
	switch {
	case out.NeedsChoice:
		fmt.Printf("step %d: status=%s — no exact match left; type 'sim' to continue approximately, or 'suggest'/'delete'\n",
			out.Step, out.Status)
	case out.Status == core.StatusSimilar:
		fmt.Printf("step %d: status=%s  Rfree=%d Rver=%d\n", out.Step, out.Status, out.FreeCount, out.VerCount)
	default:
		fmt.Printf("step %d: status=%s  |Rq|=%d\n", out.Step, out.Status, out.ExactCount)
	}
}

func loadGraphs(path string, generate int) ([]*graph.Graph, error) {
	if generate > 0 {
		db, err := prague.GenerateMolecules(generate, 42)
		if err != nil {
			return nil, err
		}
		return db.Graphs(), nil
	}
	if path == "" {
		return nil, fmt.Errorf("either -db or -generate is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadAll(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "praguecli:", err)
	os.Exit(1)
}
