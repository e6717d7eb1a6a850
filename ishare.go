// Package ishare is a from-scratch reproduction of iShare (Tang, Shang, Ma,
// Elmore, Krishnan: "Resource-efficient Shared Query Execution via
// Exploiting Time Slackness", SIGMOD 2021): an optimization framework for
// scheduled queries with heterogeneous latency goals over continuously
// loaded data.
//
// The engine merges queries into a shared plan (SharedDB-style bitvector
// sharing with marker selects), cuts it into subplans materialized into
// offset-tracked buffers, assigns each subplan an execution pace with a
// memoized incrementability-driven greedy search, selectively decomposes
// ("unshares") subplans whose sharing no longer pays under the queries'
// final-work constraints, and executes everything incrementally with
// insert/delete deltas.
//
// Quick start:
//
//	eng := ishare.NewEngine()
//	eng.MustCreateTable(ishare.TableSchema{
//	    Name:         "events",
//	    Columns:      []ishare.Column{{Name: "user_id", Type: ishare.Int}, {Name: "amount", Type: ishare.Float}},
//	    ExpectedRows: 100000,
//	})
//	eng.MustAddQuery("totals", "SELECT user_id, SUM(amount) FROM events GROUP BY user_id", 0.1)
//	plan, _ := eng.Optimize(ishare.Options{})
//	report, _ := eng.Run(plan, data)
package ishare

import (
	"fmt"
	"io"
	"strings"

	"ishare/internal/catalog"
	"ishare/internal/cost"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// Type names a column type.
type Type string

// Column types.
const (
	Int    Type = "INT"
	Float  Type = "FLOAT"
	String Type = "STRING"
	Bool   Type = "BOOL"
	Date   Type = "DATE"
)

func (t Type) kind() (value.Kind, error) {
	switch t {
	case Int:
		return value.KindInt, nil
	case Float:
		return value.KindFloat, nil
	case String:
		return value.KindString, nil
	case Bool:
		return value.KindBool, nil
	case Date:
		return value.KindDate, nil
	default:
		return 0, fmt.Errorf("ishare: unknown type %q", t)
	}
}

// Column declares one attribute of a table.
type Column struct {
	Name string
	Type Type
	// Distinct optionally estimates the number of distinct values; zero
	// lets the engine assume the column is close to unique.
	Distinct float64
	// Min and Max optionally bound numeric/date columns for selectivity
	// estimation.
	Min, Max float64
}

// TableSchema declares a base table.
type TableSchema struct {
	Name    string
	Columns []Column
	// ExpectedRows estimates the rows arriving during one trigger window
	// (e.g. the daily load); the optimizer's cost model depends on it.
	ExpectedRows float64
}

// Row is one input or output tuple; values may be int, int64, float64,
// string or bool.
type Row []interface{}

// Engine registers tables and scheduled queries and optimizes them
// together.
type Engine struct {
	cat     *catalog.Catalog
	queries []plan.Query
	names   []string
	rel     []float64
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{cat: catalog.New()}
}

// CreateTable registers a base table.
func (e *Engine) CreateTable(s TableSchema) error {
	cols := make([]catalog.Column, len(s.Columns))
	stats := make(map[string]catalog.ColumnStats, len(s.Columns))
	for i, c := range s.Columns {
		k, err := c.Type.kind()
		if err != nil {
			return err
		}
		cols[i] = catalog.Column{Name: c.Name, Type: k}
		st := catalog.ColumnStats{Distinct: c.Distinct}
		if st.Distinct == 0 {
			st.Distinct = s.ExpectedRows
		}
		if c.Min != 0 || c.Max != 0 {
			if k == value.KindFloat {
				st.Min, st.Max = value.Float(c.Min), value.Float(c.Max)
			} else {
				st.Min, st.Max = value.Int(int64(c.Min)), value.Int(int64(c.Max))
			}
		}
		stats[c.Name] = st
	}
	return e.cat.Add(&catalog.Table{
		Name:    s.Name,
		Columns: cols,
		Stats:   catalog.TableStats{RowCount: s.ExpectedRows, Columns: stats},
	})
}

// MustCreateTable is CreateTable, panicking on error (for examples).
func (e *Engine) MustCreateTable(s TableSchema) {
	if err := e.CreateTable(s); err != nil {
		panic(err)
	}
}

// AddQuery registers a scheduled query with a relative final-work
// constraint: the fraction of the query's separate batch final work the
// user is willing to pay after the trigger point (1.0 = batch latency is
// fine, 0.1 = one tenth of it). It is the paper's proxy for a latency goal.
func (e *Engine) AddQuery(name, sql string, relConstraint float64) error {
	if err := checkRel(name, relConstraint); err != nil {
		return err
	}
	q, err := plan.ParseAndBindQuery(name, sql, e.cat)
	if err != nil {
		return fmt.Errorf("ishare: query %s: %w", name, err)
	}
	e.queries = append(e.queries, q)
	e.names = append(e.names, name)
	e.rel = append(e.rel, relConstraint)
	return nil
}

// checkRel rejects a relative constraint that is not a positive number —
// written as !(rel > 0) so NaN is rejected too.
func checkRel(name string, rel float64) error {
	if !(rel > 0) {
		return fmt.Errorf("ishare: query %s: relative constraint must be positive", name)
	}
	return nil
}

// MustAddQuery is AddQuery, panicking on error (for examples).
func (e *Engine) MustAddQuery(name, sql string, relConstraint float64) {
	if err := e.AddQuery(name, sql, relConstraint); err != nil {
		panic(err)
	}
}

// QueryNames lists the registered query names in registration order.
func (e *Engine) QueryNames() []string {
	return append([]string(nil), e.names...)
}

// Approach selects the optimization strategy; the zero value is the full
// iShare pipeline.
type Approach int

// The available approaches (the paper's compared systems).
const (
	// IShare is the full system: shared plan, nonuniform paces,
	// clustering-based decomposition.
	IShare Approach = iota
	// IShareNoUnshare disables decomposition.
	IShareNoUnshare
	// IShareBruteForce uses exhaustive split enumeration.
	IShareBruteForce
	// NoShareUniform executes each query separately with a single pace.
	NoShareUniform
	// NoShareNonuniform executes each query separately with per-part
	// paces (split at blocking operators).
	NoShareNonuniform
	// ShareUniform runs the shared plan with one pace per connected plan.
	ShareUniform
)

func (a Approach) internal() (opt.Approach, error) {
	switch a {
	case IShare:
		return opt.IShare, nil
	case IShareNoUnshare:
		return opt.IShareNoUnshare, nil
	case IShareBruteForce:
		return opt.IShareBruteForce, nil
	case NoShareUniform:
		return opt.NoShareUniform, nil
	case NoShareNonuniform:
		return opt.NoShareNonuniform, nil
	case ShareUniform:
		return opt.ShareUniform, nil
	default:
		return 0, fmt.Errorf("ishare: unknown approach %d", a)
	}
}

// String names the approach as in the paper.
func (a Approach) String() string {
	in, err := a.internal()
	if err != nil {
		return fmt.Sprintf("Approach(%d)", int(a))
	}
	return in.String()
}

// Options tunes Optimize.
type Options struct {
	// Approach defaults to IShare.
	Approach Approach
	// MaxPace bounds how eagerly any subplan may execute (executions per
	// trigger window); default 50.
	MaxPace int
	// Calibration applies correction factors from a previous recurrence
	// (see RunAndCalibrate).
	Calibration Calibration
	// AbsoluteConstraints, when non-nil, overrides the queries' relative
	// constraints with absolute final-work limits in work units (the
	// paper supports both forms, §2.1). Keyed by query name.
	AbsoluteConstraints map[string]float64
	// OptWorkers bounds the pace search's candidate-evaluation pool: 1 is
	// sequential, <= 0 (the default) uses GOMAXPROCS. The resulting plan
	// is identical at any setting; only optimization wall time changes.
	OptWorkers int
}

// Plan is an optimized shared execution plan.
type Plan struct {
	planned *Planned
	engine  *Engine
}

// Planned aliases the internal optimizer output.
type Planned = opt.Planned

// Optimize builds the shared plan and pace configuration for the registered
// queries under their constraints.
func (e *Engine) Optimize(o Options) (*Plan, error) {
	req, err := e.request(o)
	if err != nil {
		return nil, err
	}
	approach, err := o.Approach.internal()
	if err != nil {
		return nil, err
	}
	p, err := opt.Plan(approach, req)
	if err != nil {
		return nil, err
	}
	return &Plan{planned: p, engine: e}, nil
}

// request resolves the registered queries and o into an optimizer request:
// relative constraints made absolute, then overridden by name from
// o.AbsoluteConstraints; MaxPace defaults to 50.
func (e *Engine) request(o Options) (opt.Request, error) {
	if len(e.queries) == 0 {
		return opt.Request{}, fmt.Errorf("ishare: no queries registered")
	}
	if o.MaxPace == 0 {
		o.MaxPace = 50
	}
	abs, err := opt.AbsoluteConstraints(e.queries, e.rel)
	if err != nil {
		return opt.Request{}, err
	}
	for name, v := range o.AbsoluteConstraints {
		found := false
		for q, qn := range e.names {
			if qn == name {
				abs[q] = v
				found = true
			}
		}
		if !found {
			return opt.Request{}, fmt.Errorf("ishare: absolute constraint for unknown query %q", name)
		}
	}
	return opt.Request{
		Queries:     e.queries,
		Constraints: abs,
		MaxPace:     o.MaxPace,
		Calibration: o.Calibration,
		Workers:     o.OptWorkers,
	}, nil
}

// Explain writes a human-readable description of the plan: per job, the
// shared operator DAG with query sets and marker predicates, the subplans,
// and their paces.
func (p *Plan) Explain(w io.Writer) {
	fmt.Fprintf(w, "approach: %s (optimization took %s)\n", p.planned.Approach, p.planned.OptDuration)
	for ji, job := range p.planned.Jobs {
		fmt.Fprintf(w, "job %d:\n", ji)
		for _, s := range job.Graph.Subplans {
			queries := ""
			for i, q := range s.Queries.Members() {
				if i > 0 {
					queries += ","
				}
				queries += p.engine.names[job.QueryIDs[q]]
			}
			fmt.Fprintf(w, "  subplan %d pace %d queries [%s]\n", s.ID, job.Paces[s.ID], queries)
			for _, o := range s.Ops {
				fmt.Fprintf(w, "      %s\n", o.Describe())
			}
		}
	}
}

// Jobs returns the number of independently executed jobs in the plan (one
// for shared approaches, one per query for the NoShare baselines).
func (p *Plan) Jobs() int { return len(p.planned.Jobs) }

// WriteDOT renders the plan's subplan graphs in Graphviz DOT form for
// visualization (one digraph per job).
func (p *Plan) WriteDOT(w io.Writer) error {
	for _, job := range p.planned.Jobs {
		if err := job.Graph.WriteDOT(w, job.Paces); err != nil {
			return err
		}
	}
	return nil
}

// Save serializes the plan's configuration (paces, decomposition splits)
// so the next recurrence of the same query set can reuse it without
// re-optimizing.
func (p *Plan) Save() ([]byte, error) {
	return opt.Save(p.planned)
}

// LoadPlan reconstructs a previously saved plan for the engine's current
// (identical) query set.
func (e *Engine) LoadPlan(data []byte) (*Plan, error) {
	planned, err := opt.Load(data, e.queries)
	if err != nil {
		return nil, err
	}
	return &Plan{planned: planned, engine: e}, nil
}

// Calibration carries per-subplan correction factors learned from a prior
// run of the same recurring workload (see Engine.RunAndCalibrate).
type Calibration = cost.Calibration

// RunAndCalibrate executes the plan like Run and additionally returns
// calibration factors comparing the cost model's estimates to the measured
// execution — the paper's recurring-query feedback (§3.2). Pass them to the
// next recurrence via Options.Calibration.
func (e *Engine) RunAndCalibrate(p *Plan, data map[string][]Row) (*Report, Calibration, error) {
	return e.run(p, data, 1, true)
}

// SubplanStats is one subplan's execution summary in a report.
type SubplanStats struct {
	// Job and Subplan locate the subplan within the plan.
	Job, Subplan int
	// Queries names the queries sharing the subplan.
	Queries []string
	// Pace is the number of incremental executions it ran.
	Pace int
	// TotalWork and FinalWork are its summed and final-execution work.
	TotalWork, FinalWork int64
	// OutputRows counts the delta tuples materialized into its buffer.
	OutputRows int
}

// Report summarizes one execution of a plan over a dataset.
type Report struct {
	// TotalWork is the summed work units of every incremental execution —
	// the engine's proxy for CPU consumption.
	TotalWork int64
	// FinalWork maps query name to the work remaining after the trigger
	// point — the proxy for the query's latency.
	FinalWork map[string]int64
	// Subplans breaks the run down per subplan (EXPLAIN ANALYZE-style).
	Subplans []SubplanStats
	results  map[string][]value.Row
}

// Breakdown writes the per-subplan execution summary.
func (r *Report) Breakdown(w io.Writer) {
	fmt.Fprintf(w, "%-4s %-8s %-6s %12s %12s %10s  %s\n",
		"job", "subplan", "pace", "total work", "final work", "out rows", "queries")
	for _, s := range r.Subplans {
		fmt.Fprintf(w, "%-4d %-8d %-6d %12d %12d %10d  %s\n",
			s.Job, s.Subplan, s.Pace, s.TotalWork, s.FinalWork, s.OutputRows,
			strings.Join(s.Queries, ","))
	}
}

// Results returns a query's materialized result rows.
func (r *Report) Results(query string) []Row { return toRows(r.results[query]) }

// toRows converts engine rows to the public Row form.
func toRows(rows []value.Row) []Row {
	out := make([]Row, len(rows))
	for i, row := range rows {
		conv := make(Row, len(row))
		for j, v := range row {
			conv[j] = valueToIface(v)
		}
		out[i] = conv
	}
	return out
}

// RunParallel is Run with independent subplans executed concurrently on up
// to workers goroutines (0 selects GOMAXPROCS). Work accounting and results
// are identical to Run; only wall-clock time changes.
func (e *Engine) RunParallel(p *Plan, data map[string][]Row, workers int) (*Report, error) {
	rep, _, err := e.run(p, data, workers, false)
	return rep, err
}

// Run executes the plan over the dataset: per table, the rows arriving
// during the trigger window in arrival order. Engine state is fresh per
// call.
func (e *Engine) Run(p *Plan, data map[string][]Row) (*Report, error) {
	rep, _, err := e.run(p, data, 1, false)
	return rep, err
}

// run executes the plan through opt's job loop and builds the report from
// each job's runner; calibrate also derives calibration factors.
func (e *Engine) run(p *Plan, data map[string][]Row, workers int, calibrate bool) (*Report, Calibration, error) {
	ds, err := e.convertDataset(data)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		FinalWork: make(map[string]int64, len(e.names)),
		results:   make(map[string][]value.Row, len(e.names)),
	}
	out, calib, err := opt.RunJobs(p.planned, ds, len(e.queries), workers, calibrate, func(ji int, r *exec.Runner, jr *exec.Report) {
		job := p.planned.Jobs[ji]
		for local, global := range job.QueryIDs {
			name := e.names[global]
			rep.FinalWork[name] += jr.QueryFinal[local]
			rep.results[name] = e.queries[global].Present.Apply(r.Results(local))
		}
		for _, s := range job.Graph.Subplans {
			names := make([]string, 0, s.Queries.Count())
			for _, q := range s.Queries.Members() {
				names = append(names, e.names[job.QueryIDs[q]])
			}
			rep.Subplans = append(rep.Subplans, SubplanStats{
				Job:        ji,
				Subplan:    s.ID,
				Queries:    names,
				Pace:       job.Paces[s.ID],
				TotalWork:  jr.SubplanTotal[s.ID],
				FinalWork:  jr.SubplanFinal[s.ID],
				OutputRows: r.Execs[s.ID].Out.Len(),
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	rep.TotalWork = out.TotalWork
	return rep, calib, nil
}

func (e *Engine) convertDataset(data map[string][]Row) (exec.Dataset, error) {
	ds := make(exec.Dataset, len(data))
	for name, rows := range data {
		t, err := e.cat.Lookup(name)
		if err != nil {
			return nil, err
		}
		out := make([]value.Row, len(rows))
		for i, row := range rows {
			if len(row) != len(t.Columns) {
				return nil, fmt.Errorf("ishare: table %s row %d has %d values, schema has %d",
					name, i, len(row), len(t.Columns))
			}
			vr := make(value.Row, len(row))
			for j, v := range row {
				cv, err := ifaceToValue(v, t.Columns[j].Type)
				if err != nil {
					return nil, fmt.Errorf("ishare: table %s row %d column %s: %w",
						name, i, t.Columns[j].Name, err)
				}
				vr[j] = cv
			}
			out[i] = vr
		}
		ds[name] = out
	}
	return ds, nil
}

func ifaceToValue(v interface{}, want value.Kind) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		if want == value.KindFloat {
			return value.Float(float64(x)), nil
		}
		if want == value.KindDate {
			return value.Date(int64(x)), nil
		}
		return value.Int(int64(x)), nil
	case int64:
		if want == value.KindFloat {
			return value.Float(float64(x)), nil
		}
		if want == value.KindDate {
			return value.Date(x), nil
		}
		return value.Int(x), nil
	case float64:
		if want == value.KindInt {
			return value.Int(int64(x)), nil
		}
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	case bool:
		return value.Bool(x), nil
	default:
		return value.Null, fmt.Errorf("unsupported value %T", v)
	}
}

func valueToIface(v value.Value) interface{} {
	switch v.K {
	case value.KindInt:
		return v.I
	case value.KindDate:
		return v.I
	case value.KindFloat:
		return v.F
	case value.KindString:
		return v.S
	case value.KindBool:
		return v.I == 1
	default:
		return nil
	}
}

// SharedOperators returns how many operators in the plan's first job are
// shared by two or more queries — a quick sharing diagnostic.
func (p *Plan) SharedOperators() int {
	if len(p.planned.Jobs) == 0 {
		return 0
	}
	return p.planned.Jobs[0].Graph.Plan.SharedOpCount()
}

// SharingReport renders which queries share how many operators, per
// operator kind — the "should these be scheduled together?" diagnostic.
func (p *Plan) SharingReport() string {
	if len(p.planned.Jobs) == 0 {
		return ""
	}
	r := p.planned.Jobs[0].Graph.Plan.Sharing()
	r.QueryNames = p.engine.names
	return r.String()
}

// graphOf is used by the examples to reach diagnostics.
func (p *Plan) graphOf(i int) *mqo.Graph { return p.planned.Jobs[i].Graph }
