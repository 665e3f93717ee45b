package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// nameArg is the position of the event-name argument of each scheduling
// call: Engine.Schedule(at, name, fn), Engine.After(d, name, fn),
// Engine.Every(start, interval, name, fn), Shard.Send(dst, delay, name,
// fn), and the robot executor's taskRun.next(d, name, fn).
var nameArg = map[string]int{"Schedule": 1, "After": 1, "Every": 2, "Send": 2, "next": 1}

// scheduledNames returns every string literal the program's non-test files
// under internal/ pass as an event name, with one position each.
func scheduledNames(t *testing.T) map[string]string {
	t.Helper()
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == "lint" {
				return filepath.SkipDir // analyzer code and fixtures schedule nothing
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := nameArg[sel.Sel.Name]
			if !ok || i >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err == nil {
					names[name] = fset.Position(lit.Pos()).String()
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestEveryEventNameHasALayer(t *testing.T) {
	names := scheduledNames(t)
	if len(names) < 40 {
		t.Fatalf("found only %d event names; the scan is missing call sites", len(names))
	}
	for name, pos := range names {
		if layerOf(name) == "other" {
			t.Errorf("%s: event %q has no layer in eventLayers", pos, name)
		}
	}
	for name := range eventLayers {
		if _, ok := names[name]; !ok {
			t.Errorf("eventLayers maps %q, which nothing schedules any more", name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return def
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	def := loadBenchmarkJSON(t)
	var e2e, layers []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range def.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layers, perLayer())

	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", def.RunSeconds)
	}
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	key := func(ds []metricDef) []string {
		var s []string
		for _, d := range ds {
			s = append(s, d.name+" "+d.unit)
		}
		sort.Strings(s)
		return s
	}
	g, w := key(got), key(want)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("BENCHMARK.json %s:\n%s\ncode:\n%s", what, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}
