package experiments

import (
	"strings"
	"testing"
)

func TestExtensionRegistry(t *testing.T) {
	for _, id := range []string{"ext-omega", "ext-upsilon", "ext-methods"} {
		if _, ok := FindAny(id); !ok {
			t.Errorf("FindAny(%q) failed", id)
		}
		if _, ok := Find(id); ok {
			t.Errorf("extension %q leaked into the paper registry", id)
		}
	}
	// Paper IDs resolve through FindAny too.
	if _, ok := FindAny("fig4a"); !ok {
		t.Error("FindAny should cover the paper registry")
	}
	if _, ok := FindAny("bogus"); ok {
		t.Error("FindAny accepted an unknown ID")
	}
}

func TestRunAnyUnknown(t *testing.T) {
	if _, err := tinyLab().RunAny("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestExtOmegaTable(t *testing.T) {
	res, err := tinyLab().RunAny("ext-omega")
	if err != nil {
		t.Fatalf("ext-omega: %v", err)
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "adaptive (Eq 6)" {
		t.Errorf("first variant = %q", tbl.Rows[0][0])
	}
	for _, r := range tbl.Rows {
		if len(r) != 7 {
			t.Fatalf("row width = %d, want 7", len(r))
		}
		if !strings.HasSuffix(r[1], "%") {
			t.Errorf("departures cell %q should be a percentage", r[1])
		}
	}
}

func TestExtMethodsTable(t *testing.T) {
	res, err := tinyLab().RunAny("ext-methods")
	if err != nil {
		t.Fatalf("ext-methods: %v", err)
	}
	if len(res.Tables[0].Rows) != 3 {
		t.Fatalf("rows = %d, want 3 strategies", len(res.Tables[0].Rows))
	}
}

func TestExtUpsilonTable(t *testing.T) {
	res, err := tinyLab().RunAny("ext-upsilon")
	if err != nil {
		t.Fatalf("ext-upsilon: %v", err)
	}
	if len(res.Tables[0].Rows) != 3 {
		t.Fatalf("rows = %d, want 3 υ settings", len(res.Tables[0].Rows))
	}
}
