package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"hummer/internal/fault"
	"hummer/internal/obs"
)

// writeOverload answers an overload rejection (429 queue-full, 503
// wait-expired, 504 timeout) with the JSON error body and a
// Retry-After hint: how long a well-behaved client should back off
// before retrying. One slot turnover is the honest estimate — the
// configured query timeout when there is one, else a nominal second.
func (s *Server) writeOverload(w http.ResponseWriter, status int, format string, args ...any) {
	secs := 1
	if s.queryTimeout > 0 {
		secs = int(math.Ceil(s.queryTimeout.Seconds()))
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, format, args...)
}

// admit takes an inflight-admission slot, returning its release (to
// be called exactly once) — or ok=false with the rejection already
// written. Admission runs before the (up to maxBodyBytes) body is
// even read: the cap exists to shed work under overload, so an
// over-limit request must not cost a 16MB decode on its way to the
// 429.
//
// At the cap the request bounces straight to 429 unless
// WithAdmissionWait configured a queue; then up to admissionQueue
// requests wait — bounded by admissionWait and by the request's own
// deadline — for a slot to free. A wait that expires answers 503, a
// client that hangs up while queued 499, and an over-full queue 429;
// all overload statuses carry Retry-After.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.slots == nil {
		s.inflight.Add(1)
		return func() { s.inflight.Add(-1) }, true
	}
	granted := func() func() {
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return granted(), true
	default:
	}

	wait := s.admissionWait
	if dl, hasDL := r.Context().Deadline(); hasDL {
		// Deadline-aware: never hold a request in the queue past the
		// point where its caller has already given up.
		if remaining := time.Until(dl); remaining < wait {
			wait = remaining
		}
	}
	if s.admissionQueue <= 0 || wait <= 0 {
		s.rejected.Add(1)
		s.writeOverload(w, http.StatusTooManyRequests,
			"server is at its inflight query limit (%d); retry later", s.maxInflight)
		return nil, false
	}
	if n := s.queuedNow.Add(1); n > int64(s.admissionQueue) {
		s.queuedNow.Add(-1)
		s.rejected.Add(1)
		s.writeOverload(w, http.StatusTooManyRequests,
			"server is at its inflight query limit (%d) and the admission queue is full; retry later", s.maxInflight)
		return nil, false
	}
	s.queuedTotal.Add(1)
	defer s.queuedNow.Add(-1)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return granted(), true
	case <-timer.C:
		s.rejected.Add(1)
		s.queueTimeouts.Add(1)
		s.writeOverload(w, http.StatusServiceUnavailable,
			"no query slot freed within %s; retry later", wait.Round(time.Millisecond))
		return nil, false
	case <-r.Context().Done():
		s.clientGone.Add(1)
		writeError(w, StatusClientClosedRequest, "client closed request while queued for admission")
		return nil, false
	}
}

// slotContext budgets one admission slot: it bounds the request's
// body read and returns a ctx carrying the same deadline for the
// execution, so a slot is never held longer than the query timeout.
// The returned release must be called exactly once; it clears the
// read deadline and cancels the ctx.
func (s *Server) slotContext(w http.ResponseWriter, r *http.Request) (context.Context, func()) {
	ctx := r.Context()
	if s.queryTimeout <= 0 {
		return ctx, func() {}
	}
	deadline := time.Now().Add(s.queryTimeout)
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(deadline)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	return ctx, func() {
		_ = rc.SetReadDeadline(time.Time{})
		cancel()
	}
}

// classify counts one failed statement and maps err to its outcome:
// 499 when the query died of cancellation and the client has hung up,
// 504 when a deadline elapsed, 500 for a panic contained at a deeper
// boundary (parshard, qcache leader, stream cursor; logged with the
// request ID and stack), 400 otherwise. Materialized, streamed and
// batch statements all fail through here; only the materialized path
// can still answer with the status.
func (s *Server) classify(r *http.Request, err error) int {
	s.queryErrors.Add(1)
	var internal *fault.InternalError
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case canceled && r.Context().Err() != nil:
		// A genuine query error that merely races a disconnect keeps
		// its own class below.
		s.clientGone.Add(1)
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout
	case errors.As(err, &internal):
		s.internalErrors.Add(1)
		s.logger.Error("query failed on contained panic",
			"request_id", obs.RequestID(r.Context()),
			"error", internal.Error(),
			"stack", string(internal.Stack))
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// writeQueryError answers a failed materialized query with its class's
// status; a timeout carries a Retry-After hint.
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch status := s.classify(r, err); status {
	case StatusClientClosedRequest:
		// The client will likely never read this, but the status
		// documents the outcome in logs and proxies.
		writeError(w, status, "client closed request: %v", err)
	case http.StatusGatewayTimeout:
		s.writeOverload(w, status, "query exceeded the %s timeout", s.queryTimeout)
	default:
		writeError(w, status, "%v", err)
	}
}
