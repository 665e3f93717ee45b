package robotapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzHandler sends an arbitrary method, path and body to Handler on one
// service. Nothing may panic, every 200, 400 and 422 answer must be a JSON
// object, and a 400 or 422 must carry its error message.
func FuzzHandler(f *testing.F) {
	svc, n, _ := newService(f, 13, nil)
	id := sepLinkID(f, n)
	task := func(end, action string) string {
		return fmt.Sprintf(`{"link":%d,"end":%q,"action":%q}`, id, end, action)
	}
	seeds := [][3]string{
		{"GET", "/v1/capabilities", ""},
		{"GET", "/v1/health", ""},
		{"GET", "/v1/topology", ""},
		{"HEAD", "/v1/health", ""},
		{"POST", "/v1/inject", fmt.Sprintf(`{"link":%d,"cause":"contamination"}`, id)},
		{"POST", "/v1/plan", task("A", "clean")},
		{"POST", "/v1/execute", task("B", "clean")},
		{"POST", "/v1/execute", task("A", "replace-cable")},
		{"POST", "/v1/inject", `{"link":-1,"cause":"oxidation"}`},
		{"POST", "/v1/plan", `{"link":`},
		{"POST", "/v1/plan", task("A", strings.Repeat("x", maxBody))},
		{"POST", "/v1/execute", `null`},
		{"DELETE", "/v1/health", ""},
		{"GET", "/v1/../v1/health", ""},
		{"PUT", "/nowhere", "{}"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2])
	}
	h := Handler(svc)
	f.Fuzz(func(t *testing.T, method, path, body string) {
		req, err := http.NewRequest(method, "http://robotd"+path, strings.NewReader(body))
		if err != nil {
			return // not a request any client could send
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			return
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil || obj == nil {
			t.Fatalf("%s %q = %d with %q, not a JSON object (%v)", method, path, rec.Code, rec.Body.Bytes(), err)
		}
		if rec.Code == http.StatusOK {
			return
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s %q = %d with %q, no error message", method, path, rec.Code, rec.Body.Bytes())
		}
	})
}
