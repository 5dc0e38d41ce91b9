package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"mix/internal/fault"
	"mix/internal/obs"
)

const schemaFile = "../../testdata/trace_schema.json"

// The checked-in schema is the validator's only source of truth, so it
// must track the code: its version is the tracer's, and its class enum
// is exactly the fault taxonomy. Otherwise it could keep a class the
// code has dropped, or reject one the code has added, and CI would only
// notice for the classes its traced runs happen to emit.
func TestSchemaVersionMatchesTracer(t *testing.T) {
	b, err := os.ReadFile(schemaFile)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.SchemaVersion != obs.TraceSchemaVersion {
		t.Fatalf("%s: schema_version %d, obs.TraceSchemaVersion %d", schemaFile, meta.SchemaVersion, obs.TraceSchemaVersion)
	}
}

func TestSchemaClassesMatchFaultTaxonomy(t *testing.T) {
	s, err := loadSchema(schemaFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range fault.Classes() {
		want = append(want, c.String())
	}
	got := slices.Clone(s.Properties["class"].Enum)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: class enum %v, fault.Classes() names %v", schemaFile, got, want)
	}
}
