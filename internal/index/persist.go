package index

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"prague/internal/graph"
	"prague/internal/mining"
)

// Persistence layout mirrors the paper's memory/disk split: the MF-index,
// the A²I-index and all DAG structure live in a2f.gob and a2i.gob; the
// DF-index fragment clusters (the "disk-resident" component of A²F) live in
// a separate data file, one gob stream per cluster at a recorded offset.
// Load reads every cluster: every store seals its sets at construction, so
// a DF cluster is always needed in memory, and a damaged file must fail the
// load as an error rather than a later lookup.

const (
	metaFile = "a2f.gob"
	dfFile   = "df.dat"
	a2iFile  = "a2i.gob"
)

// ErrInconsistent is wrapped by Load's error for a file that decodes but
// names an id out of range: an entry id that is not its position, a DAG
// link, cluster or cluster root outside the entries, or a graph id list
// that is not strictly ascending from 0. It is wrapped too for an entry or
// DIF with no fragment graph, or whose stored canonical code is not its
// graph's. CheckGraphIDs wraps it for a graph id outside the database's
// slot table.
var ErrInconsistent = errors.New("index: inconsistent persisted index")

type wireEntry struct {
	ID       int
	Code     string
	Size     int
	Parents  []int
	Children []int
	Cluster  int
	// MF-resident entries carry their payload inline; DF entries don't.
	DelIds []int
	Graph  *graph.Graph
}

type wireMeta struct {
	Beta           int
	Alpha          float64
	NumGraphs      int
	Entries        []wireEntry
	ClusterRoots   []int
	ClusterOffsets []int64 // byte offsets into df.dat
}

type wireClusterEntry struct {
	ID     int
	DelIds []int
	Graph  *graph.Graph
}

type wireCluster struct {
	Entries []wireClusterEntry
}

type wireDIF struct {
	Code    string
	Graph   *graph.Graph
	Support int
	FSGIds  []int
}

// Save persists the index set into dir (created if needed).
func (s *Set) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// DF clusters first, recording offsets.
	df, err := os.Create(filepath.Join(dir, dfFile))
	if err != nil {
		return err
	}
	defer df.Close()
	offsets := make([]int64, len(s.A2F.clusters))
	var pos int64
	for ci, c := range s.A2F.clusters {
		offsets[ci] = pos
		var wc wireCluster
		for _, id := range c.Members {
			e := s.A2F.entries[id]
			wc.Entries = append(wc.Entries, wireClusterEntry{ID: id, DelIds: e.DelIds, Graph: e.Graph})
		}
		cw := &countingWriter{w: df}
		if err := gob.NewEncoder(cw).Encode(wc); err != nil {
			return fmt.Errorf("index: encoding DF cluster %d: %w", ci, err)
		}
		pos += cw.n
	}

	meta := wireMeta{
		Beta:           s.Beta,
		Alpha:          s.Alpha,
		NumGraphs:      s.NumGraphs,
		ClusterOffsets: offsets,
	}
	for _, c := range s.A2F.clusters {
		meta.ClusterRoots = append(meta.ClusterRoots, c.Root)
	}
	for _, e := range s.A2F.entries {
		we := wireEntry{
			ID: e.ID, Code: e.Code, Size: e.Size,
			Parents: e.Parents, Children: e.Children, Cluster: e.Cluster,
		}
		if e.Cluster < 0 { // MF-resident: payload inline
			we.DelIds = e.DelIds
			we.Graph = e.Graph
		}
		meta.Entries = append(meta.Entries, we)
	}
	if err := writeGob(filepath.Join(dir, metaFile), meta); err != nil {
		return err
	}

	var difs []wireDIF
	for _, d := range s.A2I.entries {
		difs = append(difs, wireDIF{Code: d.Code, Graph: d.Graph, Support: d.Support, FSGIds: d.FSGIds})
	}
	return writeGob(filepath.Join(dir, a2iFile), difs)
}

// Load reads a persisted index set from dir, DF clusters included. A
// missing, truncated or inconsistent file is an error.
func Load(dir string) (*Set, error) {
	var meta wireMeta
	if err := readGob(filepath.Join(dir, metaFile), &meta); err != nil {
		return nil, fmt.Errorf("index: %s: %w", metaFile, err)
	}
	if len(meta.ClusterOffsets) != len(meta.ClusterRoots) {
		return nil, fmt.Errorf("index: %s: %d cluster offsets for %d clusters",
			metaFile, len(meta.ClusterOffsets), len(meta.ClusterRoots))
	}
	if err := checkMeta(&meta); err != nil {
		return nil, fmt.Errorf("index: %s: %w", metaFile, err)
	}
	a2f := &A2F{
		beta:      meta.Beta,
		byCode:    make(map[string]int, len(meta.Entries)),
		numGraphs: meta.NumGraphs,
	}
	for _, we := range meta.Entries {
		a2f.entries = append(a2f.entries, &a2fEntry{
			ID: we.ID, Code: we.Code, Size: we.Size,
			Parents: we.Parents, Children: we.Children, Cluster: we.Cluster,
			DelIds: we.DelIds, Graph: we.Graph,
		})
		a2f.byCode[we.Code] = we.ID
	}
	for ci, root := range meta.ClusterRoots {
		c := &cluster{Root: root}
		for _, e := range a2f.entries {
			if e.Cluster == ci {
				c.Members = append(c.Members, e.ID)
			}
		}
		a2f.clusters = append(a2f.clusters, c)
	}
	if err := loadClusters(filepath.Join(dir, dfFile), a2f, meta.ClusterOffsets); err != nil {
		return nil, fmt.Errorf("index: %s: %w", dfFile, err)
	}
	for _, e := range a2f.entries {
		if err := checkIDs(e.DelIds); err != nil {
			return nil, fmt.Errorf("index: entry %d delIds: %w", e.ID, err)
		}
		if err := checkCode(e.Graph, e.Code); err != nil {
			return nil, fmt.Errorf("index: entry %d: %w", e.ID, err)
		}
	}

	var difs []wireDIF
	if err := readGob(filepath.Join(dir, a2iFile), &difs); err != nil {
		return nil, fmt.Errorf("index: %s: %w", a2iFile, err)
	}
	a2i := &A2I{byCode: map[string]int{}}
	for i, d := range difs {
		if err := checkIDs(d.FSGIds); err != nil {
			return nil, fmt.Errorf("index: %s: DIF %d fsgIds: %w", a2iFile, i, err)
		}
		if err := checkCode(d.Graph, d.Code); err != nil {
			return nil, fmt.Errorf("index: %s: DIF %d: %w", a2iFile, i, err)
		}
		a2i.byCode[d.Code] = len(a2i.entries)
		a2i.entries = append(a2i.entries, &mining.Fragment{
			Code: d.Code, Graph: d.Graph, Support: d.Support, FSGIds: d.FSGIds,
		})
	}
	return &Set{A2F: a2f, A2I: a2i, Alpha: meta.Alpha, Beta: meta.Beta, NumGraphs: meta.NumGraphs}, nil
}

// checkMeta checks that every id the metadata names is in range: entry ids
// equal their positions, and DAG links, clusters and cluster roots point
// inside the entries.
func checkMeta(meta *wireMeta) error {
	n := len(meta.Entries)
	for i, root := range meta.ClusterRoots {
		if root < 0 || root >= n {
			return fmt.Errorf("cluster %d root %d of %d entries: %w", i, root, n, ErrInconsistent)
		}
	}
	for i, we := range meta.Entries {
		if we.ID != i {
			return fmt.Errorf("entry %d has id %d: %w", i, we.ID, ErrInconsistent)
		}
		if we.Cluster < -1 || we.Cluster >= len(meta.ClusterRoots) {
			return fmt.Errorf("entry %d cluster %d of %d: %w", i, we.Cluster, len(meta.ClusterRoots), ErrInconsistent)
		}
		for _, links := range [][]int{we.Parents, we.Children} {
			for _, id := range links {
				if id < 0 || id >= n {
					return fmt.Errorf("entry %d links entry %d of %d: %w", i, id, n, ErrInconsistent)
				}
			}
		}
	}
	return nil
}

// checkCode checks that a stored fragment is present and that its stored
// canonical code is its own: Lookup classifies a query fragment by code, so
// an entry answering for a foreign code would serve another fragment's
// graph ids as exact answers.
func checkCode(g *graph.Graph, code string) error {
	if g == nil {
		return fmt.Errorf("no fragment graph for code %q: %w", code, ErrInconsistent)
	}
	if own := graph.CanonicalCode(g); own != code {
		return fmt.Errorf("stored code %q, fragment's own %q: %w", code, own, ErrInconsistent)
	}
	return nil
}

// checkIDs checks that a graph id list is strictly ascending from 0.
func checkIDs(ids []int) error {
	for i, id := range ids {
		if id < 0 || (i > 0 && id <= ids[i-1]) {
			return fmt.Errorf("id %d at %d: %w", id, i, ErrInconsistent)
		}
	}
	return nil
}

// CheckGraphIDs reports, wrapping ErrInconsistent, a stored graph id
// outside [0, slots): the database's slot table. Load cannot check this
// bound itself: NumGraphs counts live graphs (a shard's, after
// partitioning), while ids are slots of the whole database, deleted ones
// included.
func (s *Set) CheckGraphIDs(slots int) error {
	for _, e := range s.A2F.entries {
		if n := len(e.DelIds); n > 0 && e.DelIds[n-1] >= slots {
			return fmt.Errorf("index: entry %d names graph %d of %d: %w", e.ID, e.DelIds[n-1], slots, ErrInconsistent)
		}
	}
	for i, d := range s.A2I.entries {
		if n := len(d.FSGIds); n > 0 && d.FSGIds[n-1] >= slots {
			return fmt.Errorf("index: DIF %d names graph %d of %d: %w", i, d.FSGIds[n-1], slots, ErrInconsistent)
		}
	}
	return nil
}

// loadClusters reads every DF cluster from the data file at its offset into
// the entries it names.
func loadClusters(path string, f *A2F, offsets []int64) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	for ci, off := range offsets {
		if _, err := file.Seek(off, io.SeekStart); err != nil {
			return err
		}
		var wc wireCluster
		if err := gob.NewDecoder(file).Decode(&wc); err != nil {
			return fmt.Errorf("cluster %d: %w", ci, err)
		}
		for _, we := range wc.Entries {
			if we.ID < 0 || we.ID >= len(f.entries) {
				return fmt.Errorf("cluster %d: entry %d of %d", ci, we.ID, len(f.entries))
			}
			e := f.entries[we.ID]
			e.DelIds = we.DelIds
			e.Graph = we.Graph
		}
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeGob(path string, v any) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(file).Encode(v); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func readGob(path string, v any) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	return gob.NewDecoder(file).Decode(v)
}
