package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Firing is one scheduled incremental execution inside a trigger window: the
// Index-th of Pace executions of a subplan, due when Index/Pace of the
// window's data has arrived.
type Firing struct {
	Subplan     int
	Index, Pace int
}

// Final reports whether this is the subplan's trigger-point execution (the
// one whose work is the query-latency proxy).
func (f Firing) Final() bool { return f.Index == f.Pace }

// Schedule translates a pace vector into one trigger window's firing
// sequence: subplan i with pace p fires p times, at arrival fractions j/p,
// ordered by fraction (exact rational comparison, so pace 2's halfway firing
// coincides with pace 4's second) and by subplan id within a fraction —
// children first, since subplan ids are children-first. Every subplan's final
// firing lands at fraction 1, the trigger point.
func Schedule(paces []int) ([]Firing, error) {
	n := 0
	for i, p := range paces {
		if p < 1 {
			return nil, fmt.Errorf("exec: subplan %d has pace %d < 1", i, p)
		}
		n += p
	}
	fs := make([]Firing, 0, n)
	for i, p := range paces {
		for j := 1; j <= p; j++ {
			fs = append(fs, Firing{Subplan: i, Index: j, Pace: p})
		}
	}
	sort.Slice(fs, func(a, b int) bool {
		l, r := fs[a].Index*fs[b].Pace, fs[b].Index*fs[a].Pace
		if l != r {
			return l < r
		}
		return fs[a].Subplan < fs[b].Subplan
	})
	return fs, nil
}

// NextGroup returns the leading firings of a schedule that share the first
// firing's arrival fraction — the group Fire runs as one unit.
func NextGroup(fs []Firing) []Firing {
	end := 1
	for end < len(fs) && fs[0].Index*fs[end].Pace == fs[end].Index*fs[0].Pace {
		end++
	}
	return fs[:end]
}

// Fire runs one same-fraction group of firings: it arrives the group's
// fraction of the current window's data, then executes each firing, storing
// its work in works (positionally aligned with group). With workers ≤ 1 the
// firings run in group order; otherwise the group is split into dependency
// waves by subplan depth — same-fraction subplans at equal depth never feed
// each other — and each wave fans out on up to workers goroutines. Work
// accounting and results are identical at any worker count; only wall time
// changes. A non-nil walls receives each execution's measured wall
// nanoseconds, captured on the executing goroutine; nil skips the clock
// reads.
func (r *Runner) Fire(group []Firing, workers int, works []Work, walls []int64) {
	r.arriveUpTo(group[0].Index, group[0].Pace)
	if workers <= 1 || len(group) == 1 {
		for i, f := range group {
			r.fire(f.Subplan, i, works, walls)
		}
		return
	}
	sem := make(chan struct{}, workers)
	wave := make([]int, 0, len(group))
	for d, left := 0, len(group); left > 0; d++ {
		wave = wave[:0]
		for i, f := range group {
			if r.depth[f.Subplan] == d {
				wave = append(wave, i)
			}
		}
		left -= len(wave)
		var wg sync.WaitGroup
		for _, i := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				// Label the worker so CPU profiles attribute samples to the
				// subplan being executed (pprof tag filtering).
				id := group[i].Subplan
				pprof.Do(context.Background(), pprof.Labels("phase", "exec", "subplan", strconv.Itoa(id)), func(context.Context) {
					r.fire(id, i, works, walls)
				})
			}(i)
		}
		wg.Wait()
	}
}

func (r *Runner) fire(id, i int, works []Work, walls []int64) {
	if walls == nil {
		works[i] = r.runOnce(id)
		return
	}
	t0 := time.Now()
	works[i] = r.runOnce(id)
	walls[i] = time.Since(t0).Nanoseconds()
}

// RunWindow drives one trigger window at the given paces: every
// same-fraction group of the window's schedule, in order, through Fire.
func (r *Runner) RunWindow(paces []int, workers int) error {
	if len(paces) != len(r.Graph.Subplans) {
		return fmt.Errorf("exec: %d paces for %d subplans", len(paces), len(r.Graph.Subplans))
	}
	fs, err := Schedule(paces)
	if err != nil {
		return err
	}
	// A group fires each subplan at most once.
	works := make([]Work, len(paces))
	for len(fs) > 0 {
		group := NextGroup(fs)
		r.Fire(group, workers, works, nil)
		fs = fs[len(group):]
	}
	return nil
}

// RunParallel executes the pace configuration over the runner's current
// window (the construction dataset unless StartWindow was called) on up to
// workers goroutines (< 1 selects GOMAXPROCS) and returns the cumulative
// report. The paper's prototype similarly spreads each incremental execution
// over its 20 cores.
func (r *Runner) RunParallel(paces []int, workers int) (*Report, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := r.RunWindow(paces, workers); err != nil {
		return nil, err
	}
	return r.report(paces), nil
}

// Run executes the configured paces sequentially over the full dataset. It
// must be called once per Runner; operator state is not reset between runs.
func (r *Runner) Run(paces []int) (*Report, error) { return r.RunParallel(paces, 1) }

// computeDepth records each subplan's depth, 1 + the max depth of its
// children: subplans at the same depth never feed each other, so a depth
// level forms a wave.
func (r *Runner) computeDepth() {
	r.depth = make([]int, len(r.Graph.Subplans))
	for _, s := range r.Graph.Subplans { // children-first order
		for _, c := range s.Children {
			if r.depth[c.ID]+1 > r.depth[s.ID] {
				r.depth[s.ID] = r.depth[c.ID] + 1
			}
		}
	}
}
