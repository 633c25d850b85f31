package prague_test

import (
	"testing"

	"prague/internal/graph"
	"prague/internal/store"
)

// mutateN applies n alternating insert/delete mutations to st (inserts clone
// database graphs so the cost matches the mined population), keeping the
// live count roughly constant.
func mutateN(tb testing.TB, st store.Store, db []*graph.Graph, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if _, err := st.InsertGraph(db[i%len(db)].Clone()); err != nil {
				tb.Fatal(err)
			}
		} else {
			if err := st.DeleteGraph(st.LiveIDs()[0]); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkMutation measures incremental InsertGraph/DeleteGraph throughput
// against monolithic, 4-shard, and 8-shard layouts. Only the owning shard's
// index set is rebuilt copy-on-write per mutation, so the cost should not
// grow with shard count.
func BenchmarkMutation(b *testing.B) {
	f := aidsFixture(b)
	for _, n := range []int{1, 4, 8} {
		st := shardStore(b, f.db, f.idx, n)
		b.Run(shardName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mutateN(b, st, f.db, 2)
			}
		})
	}
}
