package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ipin/internal/graph"
)

// Edge sources: thin adapters that turn bytes into Push calls. The wire
// format is the same everywhere — one edge per line, "src dst time" in
// decimal, '#'-prefixed lines and blank lines ignored — so the same
// gennet -stream output can be piped into a file tail, a TCP socket, or
// an HTTP POST body interchangeably. Malformed lines are counted
// (stream_parse_errors_total) and skipped, never fatal: a live feed with
// one bad producer should not stop the pipeline.

// ParseEdge parses one "src dst time" line. It is exported for the
// other readers of the wire format: the cluster's HTTP intake and the
// ipin.ParseStreamEdge facade.
func ParseEdge(line string) (graph.Interaction, error) {
	var e graph.Interaction
	var src, dst, at int64
	rest := line
	var err error
	if src, rest, err = field(rest); err != nil {
		return e, fmt.Errorf("src: %w", err)
	}
	if dst, rest, err = field(rest); err != nil {
		return e, fmt.Errorf("dst: %w", err)
	}
	if at, rest, err = field(rest); err != nil {
		return e, fmt.Errorf("time: %w", err)
	}
	if strings.TrimSpace(rest) != "" {
		return e, fmt.Errorf("trailing %q", strings.TrimSpace(rest))
	}
	if src < 0 || dst < 0 {
		return e, fmt.Errorf("negative node id")
	}
	// Node ids are int32 (graph.NodeID); a wider value would wrap on the
	// conversion below. The WAL decoder rejects the same range.
	if src > math.MaxInt32 || dst > math.MaxInt32 {
		return e, fmt.Errorf("node id above %d", math.MaxInt32)
	}
	return graph.Interaction{Src: graph.NodeID(src), Dst: graph.NodeID(dst), At: graph.Time(at)}, nil
}

// field scans one whitespace-delimited decimal integer off the front of
// s, returning the value and the remainder. Hand-rolled instead of
// strings.Fields+ParseInt so the hot intake path does not allocate a
// slice per line.
func field(s string) (int64, string, error) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	start := i
	neg := false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	var v int64
	digits := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		d := int64(s[i] - '0')
		if v > (1<<63-1-d)/10 {
			return 0, s, fmt.Errorf("overflow")
		}
		v = v*10 + d
		digits++
		i++
	}
	if digits == 0 {
		return 0, s, fmt.Errorf("missing integer at %q", s[start:])
	}
	if neg {
		v = -v
	}
	return v, s[i:], nil
}

// ReadFrom pushes every edge line read from r until EOF or the ingester
// closes. It returns the number of accepted edges and the first
// non-parse error (parse errors are counted and skipped).
func (in *Ingester) ReadFrom(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var n int64
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseEdge(line)
		if err != nil {
			in.mx.parseErrors.Inc()
			continue
		}
		if err := in.Push(e); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

// ServeTCP accepts connections on l and feeds each connection's lines
// into the pipeline until the listener is closed (typically by the
// caller when the ingester shuts down). Connections are independent: a
// slow or broken client never blocks another beyond the shared intake
// queue.
func (in *Ingester) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			_, _ = in.ReadFrom(c)
		}(conn)
	}
}

// Handler returns an HTTP handler accepting POSTed edge lines (any
// content type; the body is the same line format). The response reports
// how many edges were accepted:
//
//	{"accepted": 128}
//
// A 503 with an error body signals the ingester is closed.
func (in *Ingester) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"POST required"}`, http.StatusMethodNotAllowed)
			return
		}
		n, err := in.ReadFrom(r.Body)
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"accepted":%d,"error":%q}`+"\n", n, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"accepted":%d}`+"\n", n)
	})
}

// TailFile follows path like tail -f: it pushes existing content (from
// the start when fromStart, else only new data), then polls for
// appended lines until ctx is cancelled or the ingester closes. The
// file may not exist yet; TailFile waits for it to appear.
func (in *Ingester) TailFile(ctx context.Context, path string, fromStart bool) error {
	const poll = 100 * time.Millisecond
	var f *os.File
	for {
		var err error
		f, err = os.Open(path)
		if err == nil {
			break
		}
		if !os.IsNotExist(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-in.stopped:
			return errClosed
		case <-time.After(poll):
		}
	}
	defer f.Close()
	if !fromStart {
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			return err
		}
	}
	r := bufio.NewReader(f)
	var partial strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err == nil {
			if partial.Len() > 0 {
				line = partial.String() + line
				partial.Reset()
			}
			trimmed := strings.TrimRight(line, "\r\n")
			if trimmed != "" && !strings.HasPrefix(trimmed, "#") {
				e, perr := ParseEdge(trimmed)
				if perr != nil {
					in.mx.parseErrors.Inc()
				} else if perr := in.Push(e); perr != nil {
					return perr
				}
			}
			continue
		}
		if !errors.Is(err, io.EOF) {
			return err
		}
		// Stash the incomplete tail (a writer mid-line) and wait for more.
		partial.WriteString(line)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-in.stopped:
			return errClosed
		case <-time.After(poll):
		}
	}
}
