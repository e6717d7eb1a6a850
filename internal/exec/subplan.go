package exec

import (
	"fmt"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
)

// SubplanExec executes one subplan incrementally. Each RunOnce consumes all
// new tuples from the subplan's inputs (base-table delta logs and child
// subplans' buffers, each via a private offset-tracked reader), pushes them
// through the member operators, and materializes the root's output into the
// subplan's buffer.
type SubplanExec struct {
	// Sub is the executed subplan.
	Sub *mqo.Subplan
	// Out receives the root operator's output.
	Out *buffer.Log

	ops    map[*mqo.Op]operator
	member map[*mqo.Op]bool
	inputs map[inputKey]*buffer.Reader
	opWork map[*mqo.Op]Work
	// total, last and execs account every execution's work in constant
	// space: the running sum, the most recent execution's work (the final
	// work once a window's trigger-point firing ran) and the count.
	total, last Work
	execs       int
	// batch is the vectorized chunk size the member operators iterate
	// with; batches counts the chunks they processed (cumulative), and
	// lastBatches the chunks of the most recent RunOnce — the profiler's
	// physical batch-count column. Chunk counts are derived here from
	// input lengths with exactly delta.NewChunks' windowing, so they stay
	// deterministic without threading counters through the operators.
	batch       int
	batches     int64
	lastBatches int64
	// winOut records Out.Len() at each window seal (see Runner.sealWindow):
	// the marks that let a graft feed a rebuilt parent subplan exactly this
	// executor's window-k output during replay.
	winOut []int
}

type inputKey struct {
	op   *mqo.Op
	slot int
}

// inputResolver locates the log feeding an external input: the base-table
// log for a scan, or the producing subplan's output buffer.
type inputResolver interface {
	// TableLog returns the delta log of a base table.
	TableLog(name string) (*buffer.Log, error)
	// SubplanLog returns the output buffer of a subplan.
	SubplanLog(s *mqo.Subplan) (*buffer.Log, error)
}

// NewSubplanExec wires a subplan's operators and input readers. batch is the
// chunk size the member operators iterate deltas with; it is captured per
// operator at construction so concurrent runners never share batch state.
// Stateful member operators attach their indexed state to reg, the runner's
// arrangement registry (nil keeps all state private).
func NewSubplanExec(g *mqo.Graph, sub *mqo.Subplan, res inputResolver, batch int, reg *Registry) (*SubplanExec, error) {
	se := &SubplanExec{
		Sub:    sub,
		Out:    buffer.NewLog(fmt.Sprintf("subplan%d", sub.ID)),
		ops:    make(map[*mqo.Op]operator),
		member: make(map[*mqo.Op]bool),
		inputs: make(map[inputKey]*buffer.Reader),
		opWork: make(map[*mqo.Op]Work),
		batch:  batch,
	}
	for _, o := range sub.Ops {
		se.member[o] = true
	}
	for _, o := range sub.Ops {
		se.ops[o] = newOperator(o, batch, reg)
		if o.Kind == mqo.KindScan {
			log, err := res.TableLog(o.Table.Name)
			if err != nil {
				return nil, err
			}
			se.inputs[inputKey{o, 0}] = log.NewReader()
			continue
		}
		for i, c := range o.Children {
			if se.member[c] {
				continue
			}
			child := g.SubplanOf(c)
			if child == nil {
				return nil, fmt.Errorf("exec: op %d child %d not in any subplan", o.ID, c.ID)
			}
			log, err := res.SubplanLog(child)
			if err != nil {
				return nil, err
			}
			se.inputs[inputKey{o, i}] = log.NewReader()
		}
	}
	return se, nil
}

// DebugSlowSubplan, when non-nil, returns extra Fixed work charged to every
// incremental execution of the given subplan — fault injection for the
// scheduler runtime's overload tests, mirroring DebugSkipExtremumRescan. It
// makes a subplan look arbitrarily expensive to any clock that translates
// work into time, without slowing the test suite down; production code must
// never set it.
var DebugSlowSubplan func(subplanID int) int64

// RunOnce performs one incremental execution and returns its work.
func (se *SubplanExec) RunOnce() Work {
	b0 := se.batches
	out, w := se.eval(se.Sub.Root)
	se.lastBatches = se.batches - b0
	se.Out.Append(out...)
	// Materializing the root's output into the buffer is accounted as
	// extra output work (the paper charges intermediate materialization),
	// and every incremental execution pays the fixed startup cost.
	w.Output += int64(len(out))
	w.Fixed += StartupCostPerOp * int64(len(se.Sub.Ops))
	if DebugSlowSubplan != nil {
		w.Fixed += DebugSlowSubplan(se.Sub.ID)
	}
	return se.record(w)
}

// record accounts one execution's (or elided firing's) work.
func (se *SubplanExec) record(w Work) Work {
	se.total.Add(w)
	se.last = w
	se.execs++
	return w
}

func (se *SubplanExec) eval(op *mqo.Op) ([]delta.Tuple, Work) {
	var w Work
	var ins [][]delta.Tuple
	if op.Kind == mqo.KindScan {
		ins = [][]delta.Tuple{se.inputs[inputKey{op, 0}].ReadNew()}
	} else {
		ins = make([][]delta.Tuple, len(op.Children))
		for i, c := range op.Children {
			if se.member[c] {
				batch, cw := se.eval(c)
				w.Add(cw)
				ins[i] = batch
			} else {
				ins[i] = se.inputs[inputKey{op, i}].ReadNew()
			}
		}
	}
	// Count the chunks the operator is about to iterate: one window of at
	// most batch tuples per non-empty input, the whole input when batch < 1
	// — mirroring delta.NewChunks so the count is exact without touching
	// the operators' hot loops.
	for _, in := range ins {
		if n := len(in); n > 0 {
			if se.batch < 1 {
				se.batches++
			} else {
				se.batches += int64((n + se.batch - 1) / se.batch)
			}
		}
	}
	out, ow := se.ops[op].process(ins)
	acc := se.opWork[op]
	acc.Add(ow)
	se.opWork[op] = acc
	w.Add(ow)
	return out, w
}

// OpWork returns the cumulative work attributed to one member operator —
// the per-operator breakdown behind the subplan totals.
func (se *SubplanExec) OpWork(op *mqo.Op) Work { return se.opWork[op] }

// Executions returns the number of incremental executions so far.
func (se *SubplanExec) Executions() int { return se.execs }

// TotalWork returns the summed work of all executions.
func (se *SubplanExec) TotalWork() Work { return se.total }

// FinalWork returns the work of the last execution (zero before any run).
func (se *SubplanExec) FinalWork() Work { return se.last }

// Batches returns the cumulative vectorized chunk count across executions;
// LastBatches the chunks of the most recent execution. Physical metrics:
// they vary with the batch size, unlike the modeled Work counters.
func (se *SubplanExec) Batches() int64     { return se.batches }
func (se *SubplanExec) LastBatches() int64 { return se.lastBatches }

// release drops the member operators' arrangement handles; a graft calls
// it on every subplan executor the new plan revision no longer carries.
func (se *SubplanExec) release(reg *Registry) {
	for _, o := range se.ops {
		if a, ok := o.(arranged); ok {
			a.release(reg)
		}
	}
}

// arrangeHandles counts the arrangement handles the member operators hold.
func (se *SubplanExec) arrangeHandles() int {
	n := 0
	for _, o := range se.ops {
		if a, ok := o.(arranged); ok {
			n += a.handles()
		}
	}
	return n
}
