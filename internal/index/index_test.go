package index

import (
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/mining"
)

func testDB(t *testing.T, seed int64, n int) []*graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "N", "O"}
	var db []*graph.Graph
	for i := 0; i < n; i++ {
		nodes := 3 + r.Intn(6)
		g := graph.New(i)
		for v := 0; v < nodes; v++ {
			g.AddNode(labels[r.Intn(len(labels))])
		}
		for v := 1; v < nodes; v++ {
			g.MustAddEdge(v, r.Intn(v))
		}
		for k := 0; k < r.Intn(3); k++ {
			u, v := r.Intn(nodes), r.Intn(nodes)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		db = append(db, g)
	}
	return db
}

func buildSet(t *testing.T, db []*graph.Graph, alpha float64, beta int) (*Set, *mining.Result) {
	t.Helper()
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: 6, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(res, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	return set, res
}

func TestBuildValidation(t *testing.T) {
	db := testDB(t, 1, 5)
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(res, 0.3, 0); err == nil {
		t.Error("beta = 0 accepted")
	}
}

func TestFSGIdsMatchMiner(t *testing.T) {
	db := testDB(t, 2, 25)
	set, res := buildSet(t, db, 0.2, 2)
	for _, f := range res.Frequent {
		id, ok := set.A2F.IDByCode(f.Code)
		if !ok {
			t.Fatalf("frequent fragment %s not indexed", f.Code)
		}
		got := set.A2F.FSGIds(id)
		if len(got) != len(f.FSGIds) {
			t.Fatalf("fragment %s: reconstructed %d ids, want %d", f.Code, len(got), len(f.FSGIds))
		}
		for i := range got {
			if got[i] != f.FSGIds[i] {
				t.Fatalf("fragment %s: ids differ at %d", f.Code, i)
			}
		}
	}
	for _, d := range res.DIFs {
		id, ok := set.A2I.IDByCode(d.Code)
		if !ok {
			t.Fatalf("DIF %s not indexed", d.Code)
		}
		if len(set.A2I.FSGIds(id)) != len(d.FSGIds) {
			t.Fatalf("DIF %s: wrong FSG ids", d.Code)
		}
	}
}

func TestDelIdDeltaEncodingIsProper(t *testing.T) {
	// delId(f) must be disjoint from every child's FSG ids: the encoding
	// stores only ids not covered by descendants.
	db := testDB(t, 3, 30)
	set, _ := buildSet(t, db, 0.2, 2)
	for _, e := range set.A2F.entries {
		childIds := map[int]bool{}
		for _, c := range e.Children {
			for _, id := range set.A2F.FSGIds(c) {
				childIds[id] = true
			}
		}
		for _, id := range e.DelIds {
			if childIds[id] {
				t.Fatalf("entry %s: delId %d also covered by a child", e.Code, id)
			}
		}
	}
}

func TestMFDFPartition(t *testing.T) {
	db := testDB(t, 4, 30)
	beta := 2
	set, _ := buildSet(t, db, 0.15, beta)
	for _, e := range set.A2F.entries {
		if e.Size <= beta && e.Cluster != -1 {
			t.Errorf("size-%d fragment assigned to DF cluster", e.Size)
		}
		if e.Size > beta && e.Cluster == -1 {
			t.Errorf("size-%d fragment left in MF", e.Size)
		}
	}
	if set.A2F.MFEntries()+set.A2F.DFEntries() != set.A2F.NumEntries() {
		t.Error("MF/DF partition does not cover all entries")
	}
	if set.A2F.DFEntries() > 0 && set.A2F.NumClusters() == 0 {
		t.Error("DF entries exist but no clusters")
	}
}

func TestLookupKinds(t *testing.T) {
	db := testDB(t, 5, 25)
	set, res := buildSet(t, db, 0.2, 2)
	for _, f := range res.Frequent {
		if k, _ := set.Lookup(f.Code); k != KindFrequent {
			t.Errorf("frequent fragment classified %v", k)
		}
	}
	for _, d := range res.DIFs {
		if k, _ := set.Lookup(d.Code); k != KindDIF {
			t.Errorf("DIF classified %v", k)
		}
	}
	if k, _ := set.Lookup("(0,1,Zz,Zz)"); k != KindNone {
		t.Errorf("unknown code classified %v", k)
	}
	if KindFrequent.String() != "frequent" || KindDIF.String() != "dif" || KindNone.String() != "none" {
		t.Error("Kind.String broken")
	}
}

func TestSubsetContainmentProperty(t *testing.T) {
	// f' ⊂ f ⇒ fsgIds(f) ⊆ fsgIds(f') — the property delId exploits.
	db := testDB(t, 6, 25)
	set, _ := buildSet(t, db, 0.2, 2)
	for _, e := range set.A2F.entries {
		own := map[int]bool{}
		for _, id := range set.A2F.FSGIds(e.ID) {
			own[id] = true
		}
		for _, c := range e.Children {
			for _, id := range set.A2F.FSGIds(c) {
				if !own[id] {
					t.Fatalf("child %s id %d missing from parent %s", set.A2F.Code(c), id, e.Code)
				}
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t, 7, 30)
	set, res := buildSet(t, db, 0.15, 2)
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Beta != set.Beta || loaded.NumGraphs != set.NumGraphs || loaded.Alpha != set.Alpha {
		t.Error("metadata changed across persistence")
	}
	if loaded.A2F.NumEntries() != set.A2F.NumEntries() || loaded.A2I.NumEntries() != set.A2I.NumEntries() {
		t.Fatal("entry counts changed")
	}
	// DF clusters load with the set: reconstruct every fragment's ids and
	// compare to the miner's ground truth.
	for _, f := range res.Frequent {
		id, ok := loaded.A2F.IDByCode(f.Code)
		if !ok {
			t.Fatalf("fragment %s lost", f.Code)
		}
		got := loaded.A2F.FSGIds(id)
		if len(got) != len(f.FSGIds) {
			t.Fatalf("fragment %s: %d ids after load, want %d", f.Code, len(got), len(f.FSGIds))
		}
		for i := range got {
			if got[i] != f.FSGIds[i] {
				t.Fatalf("fragment %s: ids differ after load", f.Code)
			}
		}
	}
	for _, d := range res.DIFs {
		id, ok := loaded.A2I.IDByCode(d.Code)
		if !ok {
			t.Fatalf("DIF %s lost", d.Code)
		}
		if len(loaded.A2I.FSGIds(id)) != len(d.FSGIds) {
			t.Fatalf("DIF %s ids changed", d.Code)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("loading an empty directory succeeded")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	db := testDB(t, 8, 20)
	set, _ := buildSet(t, db, 0.2, 2)
	total, a2f, a2i := set.SizeBytes()
	if total != a2f+a2i || total <= 0 {
		t.Errorf("size accounting broken: total=%d a2f=%d a2i=%d", total, a2f, a2i)
	}
}
