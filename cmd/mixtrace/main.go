// Command mixtrace validates and converts the JSONL event traces
// written by mix -trace / mixy -trace (see DESIGN.md section 11).
//
// Usage:
//
//	mixtrace validate [-schema testdata/trace_schema.json] trace.jsonl
//	mixtrace chrome trace.jsonl > trace.json
//
// validate checks every line against the checked-in JSON schema
// (field types, kind/verdict/class enums, path-ID pattern) plus the
// structural invariants a schema cannot express: strictly increasing
// seq, parent IDs that are strict prefixes of their child paths,
// parent-less roots, and merge events whose path IDs extend a live
// (already-declared) root. Exit status 1 means the trace is invalid.
//
// chrome converts a trace to Chrome trace_event JSON on stdout, ready
// to load in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Deterministic (wall-clock-free) traces become instant events laid
// out by sequence number; timed traces become duration slices.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"

	"mix/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "validate":
		runValidate(os.Args[2:])
	case "chrome":
		runChrome(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mixtrace validate [-schema file] trace.jsonl")
	fmt.Fprintln(os.Stderr, "       mixtrace chrome trace.jsonl > trace.json")
	os.Exit(2)
}

// schemaProp is the subset of JSON Schema this validator interprets:
// enough for flat event objects (scalar types, enums, patterns,
// minimums), deliberately not a general implementation.
type schemaProp struct {
	Type    string   `json:"type"`
	Enum    []string `json:"enum"`
	Pattern string   `json:"pattern"`
	Minimum *float64 `json:"minimum"`
}

type schema struct {
	Required             []string              `json:"required"`
	AdditionalProperties bool                  `json:"additionalProperties"`
	Properties           map[string]schemaProp `json:"properties"`

	patterns map[string]*regexp.Regexp
}

func loadSchema(path string) (*schema, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s schema
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	s.patterns = map[string]*regexp.Regexp{}
	for name, p := range s.Properties {
		if p.Pattern != "" {
			re, err := regexp.Compile(p.Pattern)
			if err != nil {
				return nil, fmt.Errorf("%s: property %s: %v", path, name, err)
			}
			s.patterns[name] = re
		}
	}
	return &s, nil
}

// check validates one decoded event object against the schema.
func (s *schema) check(obj map[string]any) []string {
	var errs []string
	for _, req := range s.Required {
		if _, ok := obj[req]; !ok {
			errs = append(errs, "missing required field "+req)
		}
	}
	for name, v := range obj {
		p, known := s.Properties[name]
		if !known {
			if !s.AdditionalProperties {
				errs = append(errs, "unknown field "+name)
			}
			continue
		}
		switch p.Type {
		case "integer":
			f, ok := v.(float64)
			if !ok || f != float64(int64(f)) {
				errs = append(errs, fmt.Sprintf("field %s: want integer, got %v", name, v))
				continue
			}
			if p.Minimum != nil && f < *p.Minimum {
				errs = append(errs, fmt.Sprintf("field %s: %v below minimum %v", name, f, *p.Minimum))
			}
		case "string":
			str, ok := v.(string)
			if !ok {
				errs = append(errs, fmt.Sprintf("field %s: want string, got %v", name, v))
				continue
			}
			if len(p.Enum) > 0 && !contains(p.Enum, str) {
				errs = append(errs, fmt.Sprintf("field %s: %q not in enum %v", name, str, p.Enum))
			}
			if re := s.patterns[name]; re != nil && !re.MatchString(str) {
				errs = append(errs, fmt.Sprintf("field %s: %q does not match %s", name, str, re))
			}
		}
	}
	return errs
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func runValidate(args []string) {
	schemaPath := "testdata/trace_schema.json"
	if len(args) >= 2 && args[0] == "-schema" {
		schemaPath = args[1]
		args = args[2:]
	}
	if len(args) != 1 {
		usage()
	}
	sch, err := loadSchema(schemaPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
	defer f.Close()

	const maxErrs = 20
	var (
		nerrs, events int
		kinds         = map[string]int{}
		lastSeq       = int64(-1)
		roots         = map[string]bool{}
	)
	report := func(line int, msg string) {
		nerrs++
		if nerrs <= maxErrs {
			fmt.Fprintf(os.Stderr, "%s:%d: %s\n", args[0], line, msg)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		events++
		var obj map[string]any
		if err := json.Unmarshal([]byte(text), &obj); err != nil {
			report(line, "bad JSON: "+err.Error())
			continue
		}
		for _, msg := range sch.check(obj) {
			report(line, msg)
		}
		// Structural invariants the schema cannot express.
		if seq, ok := obj["seq"].(float64); ok {
			if int64(seq) <= lastSeq {
				report(line, fmt.Sprintf("seq %d not strictly increasing (previous %d)", int64(seq), lastSeq))
			}
			lastSeq = int64(seq)
		}
		path, _ := obj["path"].(string)
		parent, hasParent := obj["parent"].(string)
		if hasParent && !strings.HasPrefix(path, parent+".") {
			report(line, fmt.Sprintf("parent %q is not a strict prefix of path %q", parent, path))
		}
		if kind, ok := obj["kind"].(string); ok {
			kinds[kind]++
			if kind == obs.KindRoot && hasParent {
				report(line, "root event has a parent")
			}
			if kind == obs.KindRoot {
				roots[path] = true
			}
			// Merge and summary events happen on a live path: their
			// path IDs must extend a root already declared in the trace.
			if kind == obs.KindMerge || kind == obs.KindSummary {
				root, _, _ := strings.Cut(path, ".")
				if !roots[root] {
					report(line, fmt.Sprintf("%s event path %q is not under a live root", kind, path))
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
	if nerrs > 0 {
		if nerrs > maxErrs {
			fmt.Fprintf(os.Stderr, "... and %d more errors\n", nerrs-maxErrs)
		}
		fmt.Fprintf(os.Stderr, "invalid: %d events, %d errors\n", events, nerrs)
		os.Exit(1)
	}
	fmt.Printf("valid: %d events, %d roots\n", events, kinds[obs.KindRoot])
}

func runChrome(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
	defer f.Close()
	var events []obs.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			fmt.Fprintf(os.Stderr, "mixtrace: %s:%d: %v\n", args[0], line, err)
			os.Exit(1)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	if err := obs.WriteChrome(out, events); err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "mixtrace:", err)
		os.Exit(2)
	}
}
