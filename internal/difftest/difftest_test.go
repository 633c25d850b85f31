package difftest

import "testing"

// TestDifferentialQuick is the scaled-down differential suite run on every
// `go test`. The full ≥1,000-case sweep lives behind `-tags slow`.
func TestDifferentialQuick(t *testing.T) {
	cfg := Quick()
	if testing.Short() {
		cfg.Databases, cfg.Scripts = 1, 6
	}
	cases := Run(t, cfg)
	if cases == 0 {
		t.Fatal("quick differential suite checked zero cases")
	}
	t.Logf("differential: %d cases checked against the naivescan oracle", cases)
}

// TestDifferentialMutationQuick drives random edit scripts through all five
// engine variants while the database itself mutates online: every
// InsertGraph/DeleteGraph is applied to the monolithic, sharded and remote
// stores in lockstep, and every check compares against a live naivescan
// oracle that re-enumerates the sharded store's graphs — so stale index
// lists, cache entries outliving an epoch, or layout-dependent mutation
// behavior all fail.
func TestDifferentialMutationQuick(t *testing.T) {
	cfg := Quick()
	if testing.Short() {
		cfg.Databases, cfg.Scripts = 1, 8
	}
	cases := RunMutation(t, cfg)
	if cases == 0 {
		t.Fatal("quick mutation differential suite checked zero cases")
	}
	t.Logf("mutation differential: %d cases checked against the live naivescan oracle", cases)
}
