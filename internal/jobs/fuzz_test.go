package jobs

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// oversizedGridBody is a submission whose 46 KB grid has four axes of
// 2000 values each: 1.6e13 cells.
func oversizedGridBody() []byte {
	var b strings.Builder
	b.WriteString(`{"tenant":"big","spec":{"base":{"protocol":"pow","blocks":100,"trials":5}`)
	for _, axis := range []string{"w", "v", "stake", "blocks"} {
		b.WriteString(`,"` + axis + `":[`)
		for i := range 2000 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(i + 1))
		}
		b.WriteByte(']')
	}
	b.WriteString(`}}`)
	return []byte(b.String())
}

func TestSubmitOversizedGridIs400(t *testing.T) {
	// Expanding this grid once panicked the handler, and the client saw
	// a dropped connection instead of an answer.
	if got := postJob(t, startJobServer(t), oversizedGridBody()); got != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", got)
	}
}

func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"tenant":"a","spec":{"base":{"blocks":50,"trials":5},"protocols":["pow","cpos"],"stake":[0.2,0.3]}}`))
	f.Add([]byte(`{"name":"n","priority":1,"spec":[{"protocol":"mlpos","stake":0.2,"blocks":50,"trials":5}]}`))
	f.Add(oversizedGridBody())

	// The runner returns at once, after checking every spec it was given.
	ran := make(chan error, 1)
	m, err := NewManager(Config{Runner: func(_ context.Context, specs []scenario.Spec,
		_ cluster.DispatchGate, _ sweep.CacheStore) (*sweep.Report, error) {
		var bad error
		for i, s := range specs {
			if err := s.Validate(); err != nil && bad == nil {
				bad = fmt.Errorf("spec %d: %w", i, err)
			}
		}
		ran <- bad
		return &sweep.Report{}, nil
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(m.Close)
	srv := NewServer(m)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			select {
			case err := <-ran:
				if err != nil {
					t.Fatalf("accepted job carries an invalid %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("accepted job never ran")
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
