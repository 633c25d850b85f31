// Command shardserver serves one store replica's shard API over TCP for a
// remote coordinator (prague.DialStore / praguecli -connect). Each server
// process holds a full replica of the database and its action-aware indexes
// — built deterministically from -db/-index or -generate, so independently
// started replicas agree byte-for-byte on layout, content fingerprint, and
// epoch — and answers candidate probes for the shard subset given by
// -serve. Several servers claiming the same shard are replicas: the
// coordinator load-balances, hedges, and fails over between them.
//
// Usage:
//
//	shardserver -listen 127.0.0.1:7701 -shards 2 -serve 0 -generate 500
//	shardserver -listen 127.0.0.1:7702 -shards 2 -serve 1 -generate 500
//	praguecli -connect 127.0.0.1:7701,127.0.0.1:7702
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/rpcstore"
	"prague/internal/store"

	prague "prague"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7701", "address to serve the shard API on")
		shards   = flag.Int("shards", 2, "partition count N of the store layout (must match every replica)")
		serve    = flag.String("serve", "", "comma-separated shard ids this server answers probes for (default: all)")
		dbPath   = flag.String("db", "", "graph database in gSpan text format")
		indexDir = flag.String("index", "", "persisted index directory (mined on the fly if empty)")
		generate = flag.Int("generate", 0, "generate the AIDS-like demo database of this size instead of -db (fixed seed: replicas agree)")
		alpha    = flag.Float64("alpha", 0.1, "α for on-the-fly index construction")
	)
	flag.Parse()

	graphs, err := loadGraphs(*dbPath, *generate)
	if err != nil {
		fail(err)
	}
	var idx *index.Set
	if *indexDir != "" {
		idx, err = index.Load(*indexDir)
	} else {
		fmt.Println("mining indexes (use -index to load persisted ones)...")
		var mined *mining.Result
		mined, err = mining.Mine(graphs, mining.Options{MinSupportRatio: *alpha, MaxSize: 6, IncludeZeroSupportPairs: true})
		if err == nil {
			idx, err = index.Build(mined, *alpha, 4)
		}
	}
	if err != nil {
		fail(err)
	}
	st, err := store.NewSharded(graphs, idx, *shards)
	if err != nil {
		fail(err)
	}

	var opts []rpcstore.ServerOption
	served := []int{}
	if *serve != "" {
		for _, f := range strings.Split(*serve, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || id < 0 || id >= *shards {
				fail(fmt.Errorf("-serve %q: shard ids must be integers in [0, %d)", *serve, *shards))
			}
			served = append(served, id)
		}
		opts = append(opts, rpcstore.WithServeShards(served...))
	}
	srv := rpcstore.NewServer(st, opts...)
	if err := srv.Listen(*listen); err != nil {
		fail(err)
	}
	fmt.Printf("shardserver: %d graphs, tag %s, serving shards %v of %d on %s\n",
		st.NumGraphs(), st.CacheTag(), srv.ServedShards(), *shards, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shardserver: shutting down")
	srv.Close()
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
	fmt.Fprintln(os.Stderr, "shardserver:", err)
	os.Exit(1)
}
