package index

import (
	"fmt"
	"sync"
	"time"

	"prague/internal/mining"
)

// PartitionStats reports where PartitionSets spent its wall time: the
// sequential split of the delta-encoded id lists, and the concurrent
// per-shard set construction (the phase that scales with cores).
type PartitionStats struct {
	SplitTime time.Duration
	BuildTime time.Duration
}

// PartitionSets splits one built index set into n per-shard sets for a
// hash-partitioned database: shard i indexes exactly the data graphs with
// shardOf(id) == i.
//
// Every shard keeps the full fragment vocabulary — identical entry ids,
// canonical codes, DAG structure, and Lookup classification — and restricts
// only the FSG identifier lists to the shard's graphs. Because the global
// lists partition cleanly by graph membership, the union of the per-shard
// lists reconstructs the monolithic list exactly; this is what makes sharded
// evaluation byte-identical to the monolithic path after a deterministic
// merge.
//
// The split itself operates on the delta encoding: delId(f) restricted to a
// shard is exactly the shard's delta encoding (set algebra:
// (L \ ∪children) ∩ S = (L ∩ S) \ ∪(child ∩ S)), so no global list is ever
// materialized. Each shard's set is then assembled — and its FSG lists
// reconstructed and memoized — by its own goroutine, which is where sharded
// index construction gains from multiple cores.
func PartitionSets(s *Set, n int, shardOf func(graphID int) int) ([]*Set, PartitionStats, error) {
	var stats PartitionStats
	if n < 1 {
		return nil, stats, fmt.Errorf("index: partition into %d shards", n)
	}
	if s == nil {
		return nil, stats, fmt.Errorf("index: partition a nil set")
	}

	t0 := time.Now()
	// Sequential single pass: split each entry's delta list and each DIF's
	// FSG list into per-shard sub-lists. Global lists are ascending, and the
	// split preserves order, so every sub-list stays sorted.
	bad := func(id, si int) error {
		return fmt.Errorf("index: shardOf(%d) = %d outside [0,%d)", id, si, n)
	}
	delParts := make([][][]int, n) // [shard][entry] -> delta ids
	difParts := make([][][]int, n) // [shard][dif] -> fsg ids
	for si := range delParts {
		delParts[si] = make([][]int, len(s.A2F.entries))
		difParts[si] = make([][]int, len(s.A2I.entries))
	}
	for i, e := range s.A2F.entries {
		for _, id := range e.DelIds {
			si := shardOf(id)
			if si < 0 || si >= n {
				return nil, stats, bad(id, si)
			}
			delParts[si][i] = append(delParts[si][i], id)
		}
	}
	for i, d := range s.A2I.entries {
		for _, id := range d.FSGIds {
			si := shardOf(id)
			if si < 0 || si >= n {
				return nil, stats, bad(id, si)
			}
			difParts[si][i] = append(difParts[si][i], id)
		}
	}
	graphCount := make([]int, n)
	for id := 0; id < s.NumGraphs; id++ {
		si := shardOf(id)
		if si < 0 || si >= n {
			return nil, stats, bad(id, si)
		}
		graphCount[si]++
	}
	stats.SplitTime = time.Since(t0)

	// Concurrent per-shard assembly: copy the (immutable, shared) DAG
	// metadata, install the shard's delta lists, rebuild the code maps, and
	// eagerly reconstruct the memoized FSG lists so first queries pay
	// nothing. Each shard is ~1/n of the total reconstruction work.
	t1 := time.Now()
	out := make([]*Set, n)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			out[si] = buildShardSet(s, delParts[si], difParts[si], graphCount[si])
		}(si)
	}
	wg.Wait()
	stats.BuildTime = time.Since(t1)
	return out, stats, nil
}

// buildShardSet assembles one shard's index set from the shard-restricted
// delta lists. Fragment graphs, codes, and DAG adjacency are shared with the
// source set (all immutable after Build).
func buildShardSet(src *Set, delIds, difIds [][]int, numGraphs int) *Set {
	a2f := &A2F{
		beta:      src.A2F.beta,
		byCode:    make(map[string]int, len(src.A2F.entries)),
		numGraphs: numGraphs,
	}
	for i, e := range src.A2F.entries {
		a2f.entries = append(a2f.entries, &a2fEntry{
			ID: e.ID, Code: e.Code, Size: e.Size, Graph: e.Graph,
			Parents: e.Parents, Children: e.Children,
			DelIds: delIds[i], Cluster: e.Cluster,
		})
		a2f.byCode[e.Code] = e.ID
	}
	for _, c := range src.A2F.clusters {
		a2f.clusters = append(a2f.clusters, &cluster{
			Root:    c.Root,
			Members: append([]int(nil), c.Members...),
		})
	}
	for i := range a2f.entries {
		a2f.fsgIdsLocked(i) // warm the memo; no lock needed pre-publication
	}

	a2i := &A2I{byCode: make(map[string]int, len(src.A2I.entries))}
	for i, d := range src.A2I.entries {
		a2i.byCode[d.Code] = len(a2i.entries)
		a2i.entries = append(a2i.entries, shardFragment(d, difIds[i]))
	}
	return &Set{A2F: a2f, A2I: a2i, Alpha: src.Alpha, Beta: src.Beta, NumGraphs: numGraphs}
}

// shardFragment is a DIF restricted to one shard's graphs. Support follows
// the restricted list: it is the DIF's support within the shard.
func shardFragment(d *mining.Fragment, ids []int) *mining.Fragment {
	return &mining.Fragment{Code: d.Code, Graph: d.Graph, Support: len(ids), FSGIds: ids}
}
