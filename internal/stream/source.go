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
	"ipin/internal/obs"
)

// Edge sources: thin adapters that turn bytes into Push calls. The wire
// format is the same everywhere — one edge per line, "src dst time" in
// decimal, '#'-prefixed lines and blank lines ignored — so the same
// gennet -stream output can be piped into a file tail, a TCP socket, or
// an HTTP POST body interchangeably. Malformed lines are counted
// (stream_parse_errors_total) and skipped, never fatal: a live feed with
// one bad producer should not stop the pipeline.

// ParseEdge parses one "src dst time" line. It is exported for the
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

// ReadLines pushes every edge line read from r until EOF or a failed
// push. It returns the number of accepted edges and the first push or
// read error; malformed lines are counted on parseErrors and skipped.
// Both the single ingester and the cluster read their feeds with it.
func ReadLines(r io.Reader, parseErrors *obs.Counter, push func(graph.Interaction) error) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var n int64
	for sc.Scan() {
		pushed, err := pushLine(sc.Text(), parseErrors, push)
		if err != nil {
			return n, err
		}
		if pushed {
			n++
		}
	}
	return n, sc.Err()
}

// pushLine parses one line of the wire format and pushes its edge,
// reporting whether it did. Blank and '#' lines are skipped; a
// malformed line is counted on parseErrors and skipped.
func pushLine(line string, parseErrors *obs.Counter, push func(graph.Interaction) error) (bool, error) {
	if line == "" || strings.HasPrefix(line, "#") {
		return false, nil
	}
	e, err := ParseEdge(line)
	if err != nil {
		parseErrors.Inc()
		return false, nil
	}
	return true, push(e)
}

// ReadFrom pushes every edge line read from r until EOF or the ingester
// closes. It returns the number of accepted edges and the first
// non-parse error (parse errors are counted and skipped).
func (in *Ingester) ReadFrom(r io.Reader) (int64, error) {
	return ReadLines(r, in.mx.parseErrors, in.Push)
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

// IngestHandler returns an HTTP handler accepting POSTed edge lines
// (any content type; the body is the same line format), read with
// ReadLines. The response reports how many edges were accepted:
//
//	{"accepted": 128}
//
// A 503 with an error body signals a refused push, such as a closed
// ingester; a method other than POST is answered 405.
func IngestHandler(parseErrors *obs.Counter, push func(graph.Interaction) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"POST required"}`, http.StatusMethodNotAllowed)
			return
		}
		n, err := ReadLines(r.Body, parseErrors, push)
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

// Handler returns the ingester's POST intake handler (IngestHandler).
func (in *Ingester) Handler() http.Handler { return IngestHandler(in.mx.parseErrors, in.Push) }

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
			if _, err := pushLine(strings.TrimRight(line, "\r\n"), in.mx.parseErrors, in.Push); err != nil {
				return err
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
