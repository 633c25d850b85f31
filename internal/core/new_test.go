package core

import (
	"errors"
	"testing"

	"prague/internal/store"
)

// The constructor validates its inputs with typed sentinels (shared with the
// store constructors) instead of deferring the failure to the first action.
func TestNewSentinels(t *testing.T) {
	f := makeFixture(t, 11, 10, 0.3)
	if _, err := New(nil, f.idx, 2); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("New(empty db) = %v, want ErrEmptyDatabase", err)
	}
	if _, err := New(f.db, nil, 2); !errors.Is(err, ErrNilIndex) {
		t.Errorf("New(nil idx) = %v, want ErrNilIndex", err)
	}
	if _, err := New(f.db, f.idx, -1); !errors.Is(err, ErrNegativeSigma) {
		t.Errorf("New(sigma=-1) = %v, want ErrNegativeSigma", err)
	}
	if _, err := NewWithStore(nil, 2); !errors.Is(err, ErrNilIndex) {
		t.Errorf("NewWithStore(nil) = %v, want ErrNilIndex", err)
	}
	st, err := store.NewSharded(f.db, f.idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithStore(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Store() != st {
		t.Error("Store() does not return the injected store")
	}
}
