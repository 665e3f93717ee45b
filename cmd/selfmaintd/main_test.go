package main

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONError verifies the satellite fix: an unencodable value must
// produce a 500, not a silently empty 200.
func TestWriteJSONError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"bad": func() {}})
	if rec.Code != 500 {
		t.Fatalf("writeJSON(unencodable) status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, []string{})
	if rec.Code != 200 {
		t.Fatalf("writeJSON([]) status = %d, want 200", rec.Code)
	}
	var out []string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out == nil {
		t.Fatalf("writeJSON([]) body %q did not round-trip to an empty array (err %v)", rec.Body.String(), err)
	}
}
