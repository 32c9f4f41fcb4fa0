package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is
// the id of the enclosing span, 0 at the top level. Times are wall
// nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records spans in memory; they are written once, at exit. The
// benchmark opens spans from one goroutine only, so the open stack
// gives each new span its parent. A nil *spans records nothing.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// id for end.
func (s *spans) begin(name string) int {
	if s == nil {
		return 0
	}
	parent := 0
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: time.Since(s.t0).Nanoseconds()})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = time.Since(s.t0).Nanoseconds()
	if n := len(s.stack); n > 0 && s.stack[n-1] == id {
		s.stack = s.stack[:n-1]
	}
}

// selfTimes sums, per span name, the total duration and the self time:
// the duration minus the part covered by the span's children.
func (s *spans) selfTimes() (names []string, total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	child := make([]int64, len(s.list)+1)
	for _, sp := range s.list {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for _, sp := range s.list {
		if _, seen := total[sp.Name]; !seen {
			names = append(names, sp.Name)
		}
		total[sp.Name] += sp.End - sp.Start
		self[sp.Name] += sp.End - sp.Start - child[sp.ID]
	}
	return names, total, self
}

func (s *spans) printSelfTimes(w io.Writer) {
	names, total, self := s.selfTimes()
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-30s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %12.1f %12.1f\n", n, float64(total[n])/1e6, float64(self[n])/1e6)
	}
}

// write stores the spans as one JSON document at path.
func (s *spans) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, s.list}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
