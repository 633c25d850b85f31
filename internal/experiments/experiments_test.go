package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSuiteSmoke runs every experiment at a tiny scale and checks each
// produces its section header and some rows. This is the integration test
// for the whole harness; the numbers themselves are validated by the
// engine/baseline tests against brute-force oracles.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	var buf bytes.Buffer
	s := New(Config{Scale: 0.008, Seed: 42, Sigma: 3, Out: &buf})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantHeaders := []string{
		"Table II", "Figure 9(a)", "Figures 9(b)-(e)", "Figures 9(f)-(i)",
		"Figure 9(j)", "Table III", "Table IV", "Figure 10(a)",
		"Figures 10(b)-(e)", "Table V", "Latency budget",
		"sequence invariance", "verification-free", "DIF pruning", "β sensitivity",
	}
	for _, h := range wantHeaders {
		if !strings.Contains(out, h) {
			t.Errorf("output missing section %q", h)
		}
	}
	if len(strings.Split(out, "\n")) < 80 {
		t.Errorf("suspiciously short output (%d bytes)", len(out))
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Scale: 0.008, Out: &buf})
	if err := s.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNamesStable(t *testing.T) {
	// RunAll (exercised by TestSuiteSmoke) iterates Names(), so every name
	// is known to dispatch; here we only pin the published list.
	names := Names()
	if len(names) != 15 {
		t.Errorf("experiment list changed: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate experiment name %q", n)
		}
		seen[n] = true
	}
}
