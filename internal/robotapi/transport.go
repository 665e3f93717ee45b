package robotapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// maxBody bounds a request body. Every request is a TaskSpec or an
// InjectRequest, well under 100 bytes.
const maxBody = 1 << 10

// maxResponse bounds an answer the client reads. The largest is the
// topology: 6 KB for robotd's default hall, 226 KB at -leaves 128 -spines 16.
const maxResponse = 16 << 20

// InjectRequest is the JSON body of POST /v1/inject.
type InjectRequest struct {
	Link  int    `json:"link"`
	Cause string `json:"cause"`
}

// errorBody is the JSON of every 400 and 422 answer.
type errorBody struct {
	Error string `json:"error"`
}

// Handler serves the Service over HTTP:
//
//	GET  /v1/capabilities, /v1/health, /v1/topology
//	POST /v1/plan, /v1/execute   (body: a TaskSpec)
//	POST /v1/inject              (body: an InjectRequest)
//
// A result is a 200 with its JSON. A body that does not decode or exceeds
// maxBody is a 400, and a request the Service rejects is a 422; both carry
// {"error": "..."}. The mux answers unknown paths (404) and wrong methods
// (405).
func Handler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/capabilities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Capabilities())
	})
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Health())
	})
	mux.HandleFunc("GET /v1/topology", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Topology())
	})
	mux.HandleFunc("POST /v1/plan", post(func(spec TaskSpec) (any, error) { return svc.Plan(spec) }))
	mux.HandleFunc("POST /v1/execute", post(func(spec TaskSpec) (any, error) { return svc.Execute(spec) }))
	mux.HandleFunc("POST /v1/inject", post(func(req InjectRequest) (any, error) {
		return struct{}{}, svc.Inject(req.Link, req.Cause)
	}))
	return mux
}

// post serves a POST whose body is the JSON of a T: 400 when the body is
// too large or does not decode, else 422 with f's error or 200 with its
// result.
func post[T any](f func(T) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var in T
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err == nil {
			err = json.Unmarshal(data, &in)
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		out, err := f(in)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// writeJSON marshals before touching the ResponseWriter, so an encoding
// failure can still become a 500 instead of a truncated answer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "robotapi: encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// Client is the typed HTTP client for the robot API, mirroring Service.
// It is safe for concurrent use; each call's deadline comes from its
// context.
type Client struct {
	base string
	hc   http.Client
}

// NewClient returns a client for the robot API served at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{base: "http://" + addr + "/v1/"}
}

// do GETs /v1/name when in is nil and otherwise POSTs in as JSON, then
// decodes a 200 answer as a T. Any other answer is an error carrying the
// server's message.
func do[T any](ctx context.Context, c *Client, name string, in any) (T, error) {
	var out T
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		data, _ := json.Marshal(in) // a TaskSpec or InjectRequest always encodes
		method, body = http.MethodPost, bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+name, body)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if err != nil {
		return out, fmt.Errorf("robotapi: reading %s response: %w", name, err)
	}
	if len(data) > maxResponse {
		return out, fmt.Errorf("robotapi: %s response exceeds %d bytes", name, maxResponse)
	}
	if resp.StatusCode != http.StatusOK {
		var e errorBody
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = resp.Status
		}
		return out, fmt.Errorf("remote %s: %s", name, e.Error)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("robotapi: decoding %s response: %w", name, err)
	}
	return out, nil
}

// Capabilities fetches the fleet capability report.
func (c *Client) Capabilities(ctx context.Context) (Capabilities, error) {
	return do[Capabilities](ctx, c, "capabilities", nil)
}

// Plan fetches the pre-motion report for a task.
func (c *Client) Plan(ctx context.Context, spec TaskSpec) (Plan, error) {
	return do[Plan](ctx, c, "plan", spec)
}

// Execute runs a task to completion on the remote world.
func (c *Client) Execute(ctx context.Context, spec TaskSpec) (ExecuteResult, error) {
	return do[ExecuteResult](ctx, c, "execute", spec)
}

// Health fetches the observable health report.
func (c *Client) Health(ctx context.Context) (HealthReport, error) {
	return do[HealthReport](ctx, c, "health", nil)
}

// Inject forces a fault on the remote world (demo/testing hook).
func (c *Client) Inject(ctx context.Context, link int, cause string) error {
	_, err := do[struct{}](ctx, c, "inject", InjectRequest{Link: link, Cause: cause})
	return err
}

// Topology fetches the remote hall's structure as raw JSON (the topology
// package's wire form, decodable with topology.DecodeNetwork).
func (c *Client) Topology(ctx context.Context) (json.RawMessage, error) {
	return do[json.RawMessage](ctx, c, "topology", nil)
}
