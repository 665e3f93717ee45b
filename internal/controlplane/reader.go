package controlplane

import (
	"bufio"
	"io"
	"strings"
)

// maxSSELine bounds one stream line. A snapshot frame carries the whole
// materialized view on a single data line, so the cap is generous.
const maxSSELine = 16 << 20

// SSEFrame is one server-sent event as the stream endpoint writes it: an
// event name, an optional id and a data line (see sse.go).
type SSEFrame struct {
	Event string
	ID    string
	Data  string
}

// SSEReader parses a /v1/stream response body frame by frame.
type SSEReader struct{ sc *bufio.Scanner }

// NewSSEReader reads frames from r.
func NewSSEReader(r io.Reader) *SSEReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxSSELine)
	return &SSEReader{sc: sc}
}

// Next returns the next frame, blocking until a blank line completes one.
// Lines other than "event: ", "id: " and "data: " are skipped. At the end
// of the stream it returns io.EOF, dropping any frame no blank line
// completed; a read error, or a line over 16 MiB (bufio.ErrTooLong), is
// returned as it is.
func (r *SSEReader) Next() (SSEFrame, error) {
	var f SSEFrame
	seen := false
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if seen {
				return f, nil
			}
		case strings.HasPrefix(line, "event: "):
			f.Event, seen = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "id: "):
			f.ID, seen = strings.TrimPrefix(line, "id: "), true
		case strings.HasPrefix(line, "data: "):
			f.Data, seen = strings.TrimPrefix(line, "data: "), true
		}
	}
	if err := r.sc.Err(); err != nil {
		return SSEFrame{}, err
	}
	return SSEFrame{}, io.EOF
}
