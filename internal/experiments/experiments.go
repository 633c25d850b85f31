// Package experiments reproduces every table and figure of the paper's
// evaluation (§VIII), mapping each to a named experiment that prints the
// same rows/series the paper reports. Dataset sizes scale with Config.Scale
// (1.0 = paper-size inputs: AIDS 40K graphs, synthetic 10K-80K); shapes, not
// absolute numbers, are the reproduction target. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// outcomes.
package experiments

import (
	"fmt"
	"io"
	"time"

	"prague/internal/dataset"
	"prague/internal/distvp"
	"prague/internal/feature"
	"prague/internal/grafil"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/sigma"
	"prague/internal/workload"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Scale multiplies the paper's dataset sizes (default 0.05: AIDS 2000
	// graphs, synthetic 500..4000).
	Scale float64
	// Seed drives dataset generation and query selection.
	Seed int64
	// Out receives the experiment reports (default os.Stdout set by caller).
	Out io.Writer
	// Sigma is the default subgraph distance threshold (paper: 3).
	Sigma int
}

func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Sigma == 0 {
		c.Sigma = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Suite caches datasets, indexes, and workloads across experiments.
type Suite struct {
	cfg Config

	aidsDB      []*graph.Graph
	aidsMined   *mining.Result
	aidsIdx     *index.Set
	aidsFeat    *feature.Index
	aidsQueries []workload.Query // Q1 (best) + Q2-Q4 (worst)
	aidsCQs     []workload.Query // containment queries for fig9a

	synDB      map[int][]*graph.Graph // key: nominal size in thousands
	synIdx     map[int]*index.Set
	synFeat    map[int]*feature.Index
	synQueries []workload.Query // Q5-Q8 (worst-case) selected on the 40K dataset
}

// AIDS-like parameters (paper: α=0.1, β=8, σ=3). We mine fragments up to
// size 8 — mining cost grows steeply beyond that — and set β=5 so the
// DF-index holds sizes 6-8 (scaled from the paper's β=8 over its larger
// mining depth); the paper itself shows β has negligible effect.
const (
	aidsAlpha   = 0.1
	aidsBeta    = 5
	aidsMaxFrag = 8

	synAlpha   = 0.05
	synBeta    = 4
	synMaxFrag = 6
)

// New creates an experiment suite.
func New(cfg Config) *Suite {
	cfg.defaults()
	return &Suite{
		cfg:     cfg,
		synDB:   map[int][]*graph.Graph{},
		synIdx:  map[int]*index.Set{},
		synFeat: map[int]*feature.Index{},
	}
}

// Names lists all experiment identifiers in presentation order.
func Names() []string {
	return []string{
		"table2", "fig9a", "fig9be", "fig9fi", "fig9j",
		"table3", "table4", "fig10a", "fig10be", "table5", "latency",
		"ablation-sequence", "ablation-freever", "ablation-dif", "ablation-beta",
	}
}

// Run executes one experiment by name.
func (s *Suite) Run(name string) error {
	switch name {
	case "table2":
		return s.Table2()
	case "fig9a":
		return s.Fig9a()
	case "fig9be":
		return s.Fig9be()
	case "fig9fi":
		return s.Fig9fi()
	case "fig9j":
		return s.Fig9j()
	case "table3":
		return s.Table3()
	case "table4":
		return s.Table4()
	case "fig10a":
		return s.Fig10a()
	case "fig10be":
		return s.Fig10be()
	case "table5":
		return s.Table5()
	case "latency":
		return s.Latency()
	case "ablation-sequence":
		return s.AblationSequence()
	case "ablation-freever":
		return s.AblationFreeVer()
	case "ablation-dif":
		return s.AblationDIF()
	case "ablation-beta":
		return s.AblationBeta()
	default:
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
	}
}

// RunAll executes every experiment.
func (s *Suite) RunAll() error {
	for _, name := range Names() {
		if err := s.Run(name); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Out, format, args...)
}

func (s *Suite) header(title string) {
	s.printf("\n=== %s ===\n", title)
}

// ---- shared fixtures ----

func (s *Suite) aidsSize() int {
	n := int(40000 * s.cfg.Scale)
	if n < 100 {
		n = 100
	}
	return n
}

func (s *Suite) ensureAIDS() error {
	if s.aidsDB != nil {
		return nil
	}
	db, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: s.aidsSize(), Seed: s.cfg.Seed})
	if err != nil {
		return err
	}
	mined, err := mining.Mine(db, mining.Options{
		MinSupportRatio: aidsAlpha, MaxSize: aidsMaxFrag, IncludeZeroSupportPairs: true,
	})
	if err != nil {
		return err
	}
	idx, err := index.Build(mined, aidsAlpha, aidsBeta)
	if err != nil {
		return err
	}
	s.aidsDB, s.aidsMined, s.aidsIdx = db, mined, idx
	return nil
}

func (s *Suite) ensureAIDSFeatures() error {
	if s.aidsFeat != nil {
		return nil
	}
	if err := s.ensureAIDS(); err != nil {
		return err
	}
	f, err := feature.Build(s.aidsDB, s.aidsMined, feature.Options{MaxFeatureSize: 3, CountCap: 64})
	if err != nil {
		return err
	}
	s.aidsFeat = f
	return nil
}

// ensureAIDSQueries selects Q1 (best case: candidates mostly
// verification-free) and Q2-Q4 (worst case: candidates need verification),
// mirroring the paper's query design.
func (s *Suite) ensureAIDSQueries() error {
	if s.aidsQueries != nil {
		return nil
	}
	if err := s.ensureAIDS(); err != nil {
		return err
	}
	best, worst, err := workload.FindSimilarityQueries(s.aidsDB, s.aidsIdx, 1, 3, workload.Options{
		Seed: s.cfg.Seed, Sigma: s.cfg.Sigma, MinEdges: 6, MaxEdges: 8,
		RareLabels: []string{"Hg", "Se", "I"},
	})
	if err != nil {
		return err
	}
	qs := append(best, worst...)
	for i := range qs {
		qs[i].Name = fmt.Sprintf("Q%d", i+1)
	}
	s.aidsQueries = qs
	return nil
}

func (s *Suite) ensureAIDSContainmentQueries() error {
	if s.aidsCQs != nil {
		return nil
	}
	if err := s.ensureAIDS(); err != nil {
		return err
	}
	cqs, err := workload.ContainmentQueries(s.aidsDB, 6, []int{3, 4, 5, 6, 7, 8}, s.cfg.Seed+1)
	if err != nil {
		return err
	}
	s.aidsCQs = cqs
	return nil
}

// synSizes returns the nominal synthetic dataset sizes (in thousands of
// graphs before scaling), matching the paper's 10K-80K sweep.
func (s *Suite) synSizes() []int { return []int{10, 20, 40, 60, 80} }

func (s *Suite) synActualSize(nominalK int) int {
	n := int(float64(nominalK) * 1000 * s.cfg.Scale)
	if n < 50 {
		n = 50
	}
	return n
}

func (s *Suite) ensureSynthetic(nominalK int) error {
	if _, ok := s.synDB[nominalK]; ok {
		return nil
	}
	db, err := dataset.Synthetic(dataset.SyntheticOptions{
		NumGraphs: s.synActualSize(nominalK), Seed: s.cfg.Seed + int64(nominalK),
	})
	if err != nil {
		return err
	}
	mined, err := mining.Mine(db, mining.Options{
		MinSupportRatio: synAlpha, MaxSize: synMaxFrag, IncludeZeroSupportPairs: true,
	})
	if err != nil {
		return err
	}
	idx, err := index.Build(mined, synAlpha, synBeta)
	if err != nil {
		return err
	}
	feat, err := feature.Build(db, mined, feature.Options{MaxFeatureSize: 3, CountCap: 64})
	if err != nil {
		return err
	}
	s.synDB[nominalK] = db
	s.synIdx[nominalK] = idx
	s.synFeat[nominalK] = feat
	return nil
}

// ensureSynQueries selects Q5-Q8 (all worst case, like the paper) on the 40K
// nominal dataset; the same queries are reused across dataset sizes.
func (s *Suite) ensureSynQueries() error {
	if s.synQueries != nil {
		return nil
	}
	if err := s.ensureSynthetic(40); err != nil {
		return err
	}
	_, worst, err := workload.FindSimilarityQueries(s.synDB[40], s.synIdx[40], 0, 4, workload.Options{
		Seed: s.cfg.Seed + 7, Sigma: s.cfg.Sigma, MinEdges: 5, MaxEdges: 7,
		RareLabels: []string{"L19", "L18", "L17"},
	})
	if err != nil {
		return err
	}
	for i := range worst {
		worst[i].Name = fmt.Sprintf("Q%d", i+5)
	}
	s.synQueries = worst
	return nil
}

// baselines bundles the three traditional-paradigm engines over one dataset.
type baselines struct {
	gr  *grafil.Engine
	sg  *sigma.Engine
	dvp *distvp.Engine
}

func newBaselines(db []*graph.Graph, feat *feature.Index, maxSigma int) (*baselines, error) {
	gr, err := grafil.New(db, feat)
	if err != nil {
		return nil, err
	}
	sg, err := sigma.New(db, feat)
	if err != nil {
		return nil, err
	}
	dvp, err := distvp.New(db, feat, maxSigma)
	if err != nil {
		return nil, err
	}
	return &baselines{gr: gr, sg: sg, dvp: dvp}, nil
}

func ms(d time.Duration) float64  { return float64(d.Microseconds()) / 1000 }
func sec(d time.Duration) float64 { return d.Seconds() }
