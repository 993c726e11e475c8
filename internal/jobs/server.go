package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/scenario"
)

// maxSubmitBytes bounds a submission body; grids expand server-side, so
// even very large sweeps submit small.
const maxSubmitBytes = 4 << 20

// Server exposes a Manager over HTTP — the /v1/jobs API mounted by
// fairnessd and the coordinator:
//
//	POST /v1/jobs                    submit (202 + JobInfo)
//	GET  /v1/jobs?tenant=&state=     list (submission order)
//	GET  /v1/jobs/{id}               one job's snapshot
//	POST /v1/jobs/{id}/cancel        request cancellation
//	GET  /v1/jobs/{id}/results?page_token=&page_size=   paginated outcomes
type Server struct {
	m *Manager
}

// NewServer wraps a manager.
func NewServer(m *Manager) *Server { return &Server{m: m} }

// SubmitBody is the POST /v1/jobs wire format: job envelope plus the
// scenario payload, which is either an explicit scenario array or a
// grid object (the same dual format fairsweep -spec accepts).
type SubmitBody struct {
	Name       string          `json:"name,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
	Priority   int             `json:"priority,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	Seed       uint64          `json:"seed,omitempty"`
	Spec       json.RawMessage `json:"spec"`
}

// Register mounts the job API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		jobError(w, statusFor(err), err)
		return
	}
	var body SubmitBody
	if err := json.Unmarshal(data, &body); err != nil {
		jobError(w, http.StatusBadRequest, fmt.Errorf("decode submission: %w", err))
		return
	}
	if len(body.Spec) == 0 {
		jobError(w, http.StatusBadRequest, fmt.Errorf("submission carries no spec"))
		return
	}
	specs, err := scenario.DecodeSpecsOrGrid(body.Spec, body.Seed)
	if err != nil {
		jobError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.m.Submit(SubmitRequest{
		Name:       body.Name,
		Tenant:     body.Tenant,
		Priority:   body.Priority,
		DeadlineMS: body.DeadlineMS,
		Specs:      specs,
	})
	if err != nil {
		jobError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos, err := s.m.List(r.URL.Query().Get("tenant"), JobState(r.URL.Query().Get("state")))
	if err != nil {
		jobError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		jobError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		jobError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pageSize := 0
	if v := q.Get("page_size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			jobError(w, http.StatusBadRequest, fmt.Errorf("bad page_size %q", v))
			return
		}
		pageSize = n
	}
	page, err := s.m.Results(r.PathValue("id"), q.Get("page_token"), pageSize)
	if err != nil {
		jobError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// statusFor maps job-service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		return http.StatusConflict
	case errors.Is(err, ErrPageToken):
		return http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func jobError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
