package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipin/internal/obs"
	"ipin/internal/stream"
)

// lineIntake is what TestIntakeLines drives on both ingesters.
type lineIntake interface {
	Handler() http.Handler
	Checkpoint(ctx context.Context) error
	Stats() stream.Stats
	Close(ctx context.Context) error
}

// TestIntakeLines posts one body to the intake handler of a single
// ingester and of a two-shard cluster. Both read it with the same line
// reader, so both accept the same edges, count the malformed lines on
// their own parse-error counter, answer 405 to a GET, and answer 503
// once closed.
func TestIntakeLines(t *testing.T) {
	body := strings.Join([]string{
		"# a feed",
		"0 300 1",
		"",
		"1 301 2",
		"not an edge",
		"\t2  302 3 ",
		"3 303",
		"#4 304 4",
		"4 304 5 6",
		"5 305 7\r",
		"6 -306 8",
		"7 307 9",
	}, "\n") + "\n"
	const accepted, malformed = 5, 4
	for _, tc := range []struct {
		name   string
		metric string
		start  func(t *testing.T, reg *obs.Registry) lineIntake
	}{
		{"single", stream.MetricParseErrors, func(t *testing.T, reg *obs.Registry) lineIntake {
			cfg := testStreamConfig()
			cfg.Dir, cfg.Registry = t.TempDir(), reg
			in, err := stream.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}},
		{"cluster", MetricParseErrors, func(t *testing.T, reg *obs.Registry) lineIntake {
			cfg := testStreamConfig()
			cfg.Registry = reg
			c, err := New(Config{Shards: 2, Dir: t.TempDir(), Stream: cfg})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			in := tc.start(t, reg)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			t.Cleanup(func() { _ = in.Close(context.Background()) })
			h := in.Handler()
			post := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
				return rec
			}
			if rec := post(); rec.Code != http.StatusOK || rec.Body.String() != fmt.Sprintf("{\"accepted\":%d}\n", accepted) {
				t.Fatalf("POST: %d %q", rec.Code, rec.Body.String())
			}
			if got := reg.Snapshot()[tc.metric]; got != int64(malformed) {
				t.Fatalf("%s = %v, want %d", tc.metric, got, malformed)
			}
			if err := in.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			if got := in.Stats().Emitted; got != accepted {
				t.Fatalf("emitted %d edges, want %d", got, accepted)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ingest", nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("GET: %d %q, want 405", rec.Code, rec.Body.String())
			}
			if err := in.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if rec := post(); rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), `{"accepted":0,"error":`) {
				t.Fatalf("POST after Close: %d %q, want 503", rec.Code, rec.Body.String())
			}
		})
	}
}
