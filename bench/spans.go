package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

type spanKind uint8

const (
	spanSession spanKind = iota // parent of a session's calls
	spanCreate
	spanEdge
	spanModify
	spanRun
	spanDelete
	spanMutate
)

var spanNames = [...]string{"session", "create", "edge", "modify", "run", "delete", "mutate"}

// span is one facade call as the benchmark saw it. Spans inside the program
// are a later issue; these are recorded around the calls into it.
type span struct {
	kind       spanKind
	parent     int32 // index of the session span, -1 for a root
	session    int32 // position in the round's schedule (graph index for a mutation)
	start, end int64 // ns since the log was opened
}

// spanLog keeps the spans of a traced run in memory until the run ends. A nil
// log records nothing, which is the untraced run.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) begin(kind spanKind, parent, session int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, parent: int32(parent), session: int32(session), start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l != nil {
		l.spans[i].end = int64(time.Since(l.t0))
	}
}

// medianUS is the median duration of the spans of one kind.
func (l *spanLog) medianUS(kind spanKind) float64 {
	var d []time.Duration
	for _, s := range l.spans {
		if s.kind == kind {
			d = append(d, time.Duration(s.end-s.start))
		}
	}
	return quantileUS(d, 50)
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		err = enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Parent  int32  `json:"parent"`
			Session int32  `json:"session"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{i, spanNames[s.kind], s.parent, s.session, s.start, s.end})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
