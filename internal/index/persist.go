package index

import (
	"encoding/gob"
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

	var difs []wireDIF
	if err := readGob(filepath.Join(dir, a2iFile), &difs); err != nil {
		return nil, fmt.Errorf("index: %s: %w", a2iFile, err)
	}
	a2i := &A2I{byCode: map[string]int{}}
	for _, d := range difs {
		a2i.byCode[d.Code] = len(a2i.entries)
		a2i.entries = append(a2i.entries, &mining.Fragment{
			Code: d.Code, Graph: d.Graph, Support: d.Support, FSGIds: d.FSGIds,
		})
	}
	return &Set{A2F: a2f, A2I: a2i, Alpha: meta.Alpha, Beta: meta.Beta, NumGraphs: meta.NumGraphs}, nil
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
