package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"prague/internal/core"
)

// TestRunRacingCloseReturnsTypedError hammers live sessions with evaluating
// and read actions while the service shuts down mid-flight. The contract
// under -race: no data race, no panic, and every failure is one of the typed
// errors — an action that loses the race against Close gets ErrServiceClosed
// (not ErrSessionNotFound, and never a torn read of freed session state).
func TestRunRacingCloseReturnsTypedError(t *testing.T) {
	db, idx := smallFixture(t)
	for round := 0; round < 8; round++ {
		s, err := newMem(db, idx)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		const sessions = 4
		var ss [sessions]*Session
		for i := range ss {
			ss[i], err = s.Create(ctx)
			if err != nil {
				t.Fatal(err)
			}
			u, _ := ss[i].AddNode("C")
			v, _ := ss[i].AddNode("N")
			if _, err := ss[i].AddEdge(ctx, u, v); err != nil {
				t.Fatal(err)
			}
		}

		allowed := func(err error) bool {
			return err == nil ||
				errors.Is(err, ErrServiceClosed) ||
				errors.Is(err, ErrOverloaded) ||
				errors.Is(err, core.ErrAwaitingChoice) ||
				errors.Is(err, core.ErrEmptyQuery)
		}

		var wg sync.WaitGroup
		errs := make(chan error, 64)
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*100 + w)))
				<-start
				for i := 0; i < 50; i++ {
					sess := ss[r.Intn(sessions)]
					var err error
					switch r.Intn(4) {
					case 0:
						_, err = sess.Run(ctx)
					case 1:
						u, aerr := sess.AddNode("C")
						err = aerr
						if err == nil {
							_, err = sess.AddEdge(ctx, u, 0)
						}
					case 2:
						_, err = sess.Describe()
					default:
						_, err = sess.QueryGraph()
					}
					if !allowed(err) {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}()
		}
		close(start)
		s.Close() // races the workers on purpose
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: action racing Close returned untyped error: %v", round, err)
		}

		// After Close has returned, the error is deterministic.
		if _, err := ss[0].Run(ctx); !errors.Is(err, ErrServiceClosed) {
			t.Fatalf("post-Close Run: %v, want ErrServiceClosed", err)
		}
		if _, err := s.Create(ctx); !errors.Is(err, ErrServiceClosed) {
			t.Fatalf("post-Close Create: %v, want ErrServiceClosed", err)
		}
	}
}
