package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"
	"strconv"
	"strings"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// reference computes every query's result independently of the run under
// test: a fresh runner per query, no sharing, pace 1, over the whole stream.
func reference(queries []plan.Query, data exec.DeltaDataset) ([][]value.Row, error) {
	out := make([][]value.Row, len(queries))
	for i, q := range queries {
		sp, err := mqo.Build([]plan.Query{q})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		r, err := exec.NewDeltaRunner(g, data)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		if _, err := r.Run(pace.Ones(len(g.Subplans))); err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		out[i] = r.Results(0)
	}
	return out, nil
}

// sameRows reports whether two result multisets agree, or why not. Floats
// compare within a relative 1e-9 (plus 1e-6 absolute for sums that cancel
// to about zero): incremental aggregation adds deltas in another order than
// a batch pass, which moves the lowest bits.
func sameRows(got, want []value.Row) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if !rowsClose(g[i], w[i]) {
			return false, fmt.Sprintf("row %s, want %s", g[i], w[i])
		}
	}
	return true, ""
}

func rowsClose(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.K == value.KindFloat || y.K == value.KindFloat {
			if x.K == value.KindNull || y.K == value.KindNull {
				return x.K == y.K
			}
			fx, fy := x.AsFloat(), y.AsFloat()
			if math.Abs(fx-fy) > 1e-6+1e-9*math.Max(math.Abs(fx), math.Abs(fy)) {
				return false
			}
			continue
		}
		if !value.KeyEqual(x, y) {
			return false
		}
	}
	return true
}

// sortedRows orders rows by a rendering whose floats are rounded to six
// significant digits, so rows that differ only in their lowest float bits
// sort alike on both sides.
func sortedRows(rows []value.Row) []value.Row {
	type keyed struct {
		key string
		row value.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.K == value.KindFloat {
				parts[j] = strconv.FormatFloat(v.F, 'g', 6, 64)
			} else {
				parts[j] = v.String()
			}
		}
		ks[i] = keyed{strings.Join(parts, "|"), r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]value.Row, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}

// digest is a running hash of values that must repeat exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) add(v ...interface{}) { fmt.Fprintln(d.h, v...) }

// addRows hashes a result multiset at full precision.
func (d *digest) addRows(rows []value.Row) {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = value.Key(r)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.h.Write([]byte(k))
		d.h.Write([]byte{0})
	}
	d.h.Write([]byte{1})
}

func (d *digest) String() string { return fmt.Sprintf("%x", d.h.Sum(nil))[:16] }
