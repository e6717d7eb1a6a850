// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a JSON benchmark report: one record per benchmark with name, iterations,
// ns/op, B/op and allocs/op. `make bench-json` pipes the repo's benchmarks
// through it to produce the BENCH_PR10.json CI artifact, which `benchdiff`
// compares against the checked-in BENCH_PR9.json baseline.
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

func main() {
	out := flag.String("o", "", "output file (stdout when empty)")
	flag.Parse()

	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
}

// parse extracts benchmark result lines; go test's PASS/ok and goos/goarch
// lines are skipped.
func parse(f *os.File) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if ok {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// parseLine parses one `BenchmarkX-8  N  t ns/op  b B/op  a allocs/op` line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iters: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			if ns, err := strconv.ParseFloat(v, 64); err == nil {
				r.NsOp = ns
				seen = true
			}
		case "B/op":
			r.BytesOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsOp, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if !seen {
		return Result{}, false
	}
	return r, true
}
