// Command benchmark is the repository's end-to-end benchmark. It drives the
// iShare layers through their exported entry points on one of three
// workloads, checks the outputs, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics, a traced run
// (-trace 1) the per-layer ones. See README.md for the workloads and the
// metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"ishare/internal/exec"
	"ishare/internal/vec"
)

func main() {
	cfg := fullScale()
	flag.StringVar(&cfg.Workload, "workload", "", "workload: plan-mix, stream or churn")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end ones")
	flag.StringVar(&cfg.SpansDir, "spans", "", "directory a traced run writes its spans to (none when empty)")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.Seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.Trace = *traceFlag == 1

	knobs, err := checkKnobs(os.Environ())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Printf("knobs %s opt_workers=%d sched_workers=%d\n", knobs, workers, workers)

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, line := range out.lines {
		fmt.Println(line)
	}
	for _, p := range out.problems {
		fmt.Println("problem", p)
	}
	if out.spansPath != "" {
		fmt.Println("spans", out.spansPath)
	}
	line, err := resultJSON(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultJSON renders the result line, the last line of the output.
func resultJSON(cfg config, out *outcome) (string, error) {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{Value: v, Unit: unitOf(defs, d.name)}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	return string(b), err
}

// checkKnobs refuses an environment that sets an ISHARE_* knob to anything
// but its default, so a stray variable cannot change the measured program,
// and renders the effective knobs and Go runtime settings.
func checkKnobs(environ []string) (string, error) {
	var bad []string
	for _, kv := range environ {
		name, val, _ := strings.Cut(kv, "=")
		if !strings.HasPrefix(name, "ISHARE_") {
			continue
		}
		switch name {
		case "ISHARE_BATCH", "ISHARE_SHARE_ARRANGEMENTS", "ISHARE_REUSE":
		default:
			bad = append(bad, fmt.Sprintf("%s=%s (unknown knob)", name, val))
		}
	}
	if b := vec.BatchFromEnv(); b != vec.DefaultBatch {
		bad = append(bad, fmt.Sprintf("ISHARE_BATCH=%d (default %d)", b, vec.DefaultBatch))
	}
	if !exec.ShareFromEnv() {
		bad = append(bad, "ISHARE_SHARE_ARRANGEMENTS off (default on)")
	}
	if !exec.ReuseFromEnv() {
		bad = append(bad, "ISHARE_REUSE off (default on)")
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return "", fmt.Errorf("refusing to run with non-default knobs: %s", strings.Join(bad, ", "))
	}
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return fmt.Sprintf("ISHARE_BATCH=%d ISHARE_SHARE_ARRANGEMENTS=%s ISHARE_REUSE=%s GOMAXPROCS=%d GOGC=%s",
		vec.BatchFromEnv(), onOff(exec.ShareFromEnv()), onOff(exec.ReuseFromEnv()),
		runtime.GOMAXPROCS(0), strconv.Itoa(gogc)), nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
