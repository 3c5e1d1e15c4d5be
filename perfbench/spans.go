package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// iteration share Run; Parent 0 marks the iteration's root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the iteration's recorder started
	EndUS   float64 `json:"end_us"`
}

// spans records an iteration's spans in memory; they are written out
// when the run ends. Safe for concurrent use (control-plane requests
// are served on their own goroutines). A nil *spans records nothing.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	run  string
	list []span
}

func newSpans(run string) *spans { return &spans{t0: time.Now(), run: run} }

// start opens a span and returns its id (0 on a nil recorder).
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := float64(time.Since(s.t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Run: s.run, Name: name, StartUS: now})
	return id
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := float64(time.Since(s.t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.list[id-1].EndUS = now
	s.mu.Unlock()
}

// total sums the durations of the spans named name, in seconds; ok is
// false when there is none.
func (s *spans) total(name string) (sec float64, ok bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.list {
		if sp.Name == name {
			sec += (sp.EndUS - sp.StartUS) / 1e6
			ok = true
		}
	}
	return sec, ok
}

// selfTimes returns, per span name, the summed duration and self time:
// a span's duration minus the part of it its children cover (children
// may overlap, e.g. concurrent control-plane requests, so their union
// is subtracted).
func selfTimes(list []span) (names []string, total, self map[string]float64, n map[string]int) {
	type key struct {
		run string
		id  int
	}
	children := map[key][]span{}
	for _, sp := range list {
		if sp.Parent != 0 {
			k := key{sp.Run, sp.Parent}
			children[k] = append(children[k], sp)
		}
	}
	total, self, n = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, sp := range list {
		d := sp.EndUS - sp.StartUS
		if _, seen := n[sp.Name]; !seen {
			names = append(names, sp.Name)
		}
		n[sp.Name]++
		total[sp.Name] += d
		self[sp.Name] += d - covered(sp, children[key{sp.Run, sp.ID}])
	}
	sort.Strings(names)
	return names, total, self, n
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	sum, curS, curE := 0.0, 0.0, -1.0
	for _, k := range kids {
		s, e := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// selfTimeLines formats the per-name span totals of a traced run.
func selfTimeLines(list []span) []string {
	names, total, self, n := selfTimes(list)
	out := []string{fmt.Sprintf("%-34s %6s %12s %12s", "span", "count", "total_s", "self_s")}
	for _, name := range names {
		out = append(out, fmt.Sprintf("%-34s %6d %12.4f %12.4f", name, n[name], total[name]/1e6, self[name]/1e6))
	}
	return out
}
