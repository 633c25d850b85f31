package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"

	"prague/internal/core"
	"prague/internal/naivescan"
	"prague/internal/service"
	"prague/internal/store"
)

// warmUp is design rule 7 and the correctness gate: two untimed passes over
// every distinct query, then one more in which each answer is compared with
// the index-free naivescan oracle over the same store. The checked answer
// becomes the variant's expected answer for every timed Run. It returns the
// digest over all answers; topologies serving the same database must agree
// on it.
func warmUp(c *client, st store.Store) (string, error) {
	oracle, err := naivescan.NewFromStore(st, runtime.GOMAXPROCS(0))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for i, v := range c.sched.variants {
		check := func(ss *service.Session, out core.RunOutcome) error {
			info, err := ss.Describe()
			if err != nil {
				return err
			}
			qg, err := ss.QueryGraph()
			if err != nil {
				return err
			}
			v.similarity, v.warmSRT = info.SimilarityMode, info.SRT
			var want []core.Result
			if v.similarity {
				rs, _ := oracle.Similarity(qg, sigma)
				for _, r := range rs {
					want = append(want, core.Result{GraphID: r.GraphID, Distance: r.Distance})
				}
			} else {
				ids, _ := oracle.Containment(qg)
				for _, id := range ids {
					want = append(want, core.Result{GraphID: id})
				}
			}
			v.answer, v.results = answerDigest(want), len(want)
			for _, r := range want {
				binary.Write(h, binary.LittleEndian, [2]int64{int64(r.GraphID), int64(r.Distance)})
			}
			return nil
		}
		for pass := 0; pass < 3; pass++ {
			c.inspect = nil
			if pass == 2 {
				c.inspect = check
			}
			out, err := c.session(v, -1, i)
			if err == nil && pass == 2 {
				err = checkOutcome(v, out)
				if v.modify {
					v.warmModify = c.modify[len(c.modify)-1]
				}
			}
			if err != nil {
				c.fail(fmt.Errorf("warm-up of %s: %w", v, err))
				break
			}
		}
		if wantSim := v.q.Class != "containment"; !v.modify && v.similarity != wantSim && c.firstErr == nil {
			c.fail(fmt.Errorf("%s was picked as a %s query but runs with similarity=%v: regenerate the pool", v, v.q.Class, v.similarity))
		}
	}
	c.inspect = nil
	c.attempted += len(c.sched.variants) // the oracle comparisons
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
