package main

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strconv"
	"time"
)

// Design rule 8: every duration the benchmark reports is divided by the
// host's speed during the run.
//
// The reference VM shares its physical cores with other tenants and moves
// between regimes that last minutes: the same binary, seed and schedule read
// 25–40 % apart, every metric of a run shifted alike, while a dependent chain
// of integer shifts is steady within 4 % (so it is not the clock: it is what a
// busy sibling hyperthread leaves of the core). No run of 30 s can average
// that out, so the benchmark measures it: a speedometer runs a fixed kernel of
// the benchmark's own — no code of the program — every few dozen sessions, at
// fixed positions of the schedule and outside every timed interval, and the
// run's values are divided by the median of its readings.
//
// A reading is the time of the kernel's parts relative to their times on the
// quiet reference host, so 1.0 is that host and 1.3 a host on which this kind
// of code takes 30 % longer; reported values are "µs at reference speed", and
// value × host speed is what the clock said. The parts are the kinds of work
// the layers do, because a busy sibling slows them differently (README,
// "Host speed"):
//
//   - compute: sort 8192 integers, then 32768 inserts into an open-addressing
//     table of 512 KB (spig, graph, intset: arithmetic and branches in L2);
//   - strings: fill and probe a map of 2048 short strings (index lookups,
//     candidate-cache keys: hashing and runtime map code);
//   - frames: gob-encode and decode 16 small messages, a fresh encoder and
//     decoder each as rpcstore frames have (reflection and allocation).
//
// In process the parts weigh 2:1:1. The remote topology reads the frames part
// alone: its steps are codec time (README, "Where the time is").
type speedometer struct {
	weights  [3]float64
	src      []int
	scratch  []int
	table    []uint64
	keys     [][]byte
	byKey    map[string]int
	frame    speedFrame
	buf      bytes.Buffer
	readings []float64
}

// speedFrame has the shape of a small rpcstore message.
type speedFrame struct {
	Seq  uint64
	Op   string
	Frag string
	IDs  []uint64
}

// Nanoseconds of each part on the reference host (2 vCPU Xeon 2.1 GHz,
// go1.24) in its fast regime, read between sessions as the benchmark reads
// them (caches cold; in a tight loop the parts are a fifth faster).
var speedRefNS = [3]float64{785e3, 410e3, 480e3}

var (
	weightsInProcess = [3]float64{2, 1, 1}
	weightsRemote    = [3]float64{0, 0, 1}
)

func newSpeedometer(weights [3]float64) *speedometer {
	s := &speedometer{weights: weights}
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64: the kernel's inputs are the same on every run
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	s.src = make([]int, 8192)
	for i := range s.src {
		s.src[i] = int(next() % 100000)
	}
	s.scratch = make([]int, len(s.src))
	s.table = make([]uint64, 1<<16)
	s.keys = make([][]byte, 2048)
	for i := range s.keys {
		s.keys[i] = strconv.AppendUint([]byte("C-C-N-"), next()%1000000, 10)
	}
	s.byKey = make(map[string]int, 2*len(s.keys))
	s.frame = speedFrame{Seq: 1, Op: "candidates", Frag: "C-C-N-O-C-C", IDs: make([]uint64, 64)}
	for i := range s.frame.IDs {
		s.frame.IDs[i] = next()
	}
	s.read() // the first pass sizes the map and the buffer; it is not a reading
	s.readings = s.readings[:0]
	return s
}

var speedSink uint64 // keeps the kernel from being optimised away

func (s *speedometer) compute() {
	copy(s.scratch, s.src)
	slices.Sort(s.scratch)
	clear(s.table)
	mask := uint64(len(s.table) - 1)
	for rep := 0; rep < 4; rep++ {
		for _, k := range s.src {
			key := uint64(k + rep*7919 + 1)
			h := (key * 0x9E3779B97F4A7C15) >> 20 & mask
			for s.table[h] != 0 && s.table[h] != key {
				h = (h + 1) & mask
			}
			s.table[h] = key
		}
	}
	speedSink += uint64(s.scratch[17]) + s.table[3]
}

func (s *speedometer) strings() {
	n := 0
	for rep := 0; rep < 2; rep++ {
		clear(s.byKey)
		for i, k := range s.keys {
			s.byKey[string(k)] = i
		}
		for probe := 0; probe < 3; probe++ {
			for _, k := range s.keys {
				n += s.byKey[string(k)]
			}
		}
	}
	speedSink += uint64(n)
}

func (s *speedometer) frames() {
	for i := 0; i < 16; i++ {
		s.buf.Reset()
		var out speedFrame
		// Neither call can fail: the buffer takes every write and holds
		// exactly what was encoded.
		_ = gob.NewEncoder(&s.buf).Encode(&s.frame)
		_ = gob.NewDecoder(&s.buf).Decode(&out)
		speedSink += out.Seq + uint64(len(out.IDs))
	}
}

// read runs the kernel once and records the host's speed now.
func (s *speedometer) read() {
	var v, w float64
	for i, part := range [3]func(){s.compute, s.strings, s.frames} {
		if s.weights[i] == 0 {
			continue
		}
		t0 := time.Now()
		part()
		v += s.weights[i] * float64(time.Since(t0)) / speedRefNS[i]
		w += s.weights[i]
	}
	s.readings = append(s.readings, v/w)
}

// median is the host speed of the run: the median of its readings.
func (s *speedometer) median() float64 {
	_, med, _ := quartiles(s.readings)
	return med
}
