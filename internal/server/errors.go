package server

import (
	"errors"
	"fmt"
)

// Wire error codes. A Response with OK == false carries at most one
// Code; an empty Code is a plain statement/command error (the request
// executed, or was understood, and failed on its own merits). Coded
// errors classify edge rejections and timeouts so clients can react
// mechanically:
//
//	overload     shed at the admission gate; RetryAfterMS says when to
//	             retry (the request never executed — safe to resend)
//	draining     the server is shutting down; retry against another
//	             controller, not this one
//	too_large    the request frame exceeded MaxFrameBytes; the
//	             connection was resynced and lives on
//	deadline     the request's DeadlineMS budget expired
//	unavailable  no live replica could serve the request (retryable —
//	             a failed backend may recover)
//	bad_request  the frame was not a valid request
//	bad_handle   an exec/close referenced a prepared handle this
//	             connection does not hold (closed, never prepared, or a
//	             different connection's) — re-prepare and retry
const (
	CodeOverload    = "overload"
	CodeDraining    = "draining"
	CodeTooLarge    = "too_large"
	CodeDeadline    = "deadline"
	CodeUnavailable = "unavailable"
	CodeBadRequest  = "bad_request"
	CodeBadHandle   = "bad_handle"
)

// OverloadError is the typed form of a CodeOverload rejection: the
// admission gate shed the request before execution. RetryAfterMS is the
// server's backoff hint, scaled by how deep the wait queue was.
type OverloadError struct {
	// RetryAfterMS is the suggested delay before resending.
	RetryAfterMS int64
	// Msg is the wire error text ("" for server-side construction).
	Msg string
}

// Error formats the rejection with its retry hint.
func (e *OverloadError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return fmt.Sprintf("server: overloaded, retry after %dms", e.RetryAfterMS)
}

// DrainingError is the typed form of a CodeDraining rejection: the
// server is shutting down and rejects new work while inflight requests
// finish.
type DrainingError struct {
	// Msg is the wire error text ("" for server-side construction).
	Msg string
}

// Error names the condition.
func (e *DrainingError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return "server: draining, not accepting new requests"
}

// WireError is the typed form of any other coded wire failure
// (too_large, deadline, unavailable, bad_request) surfaced by the
// client.
type WireError struct {
	Code         string
	Msg          string
	RetryAfterMS int64
}

// Error formats the failure with its code.
func (e *WireError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Msg) }

// ErrCircuitOpen is returned by a client whose circuit breaker is open:
// recent requests failed or were shed, and the cooldown has not passed.
// The request was NOT sent.
var ErrCircuitOpen = errors.New("server: client circuit breaker open")

// ResponseError converts a failed response into its typed error: nil
// when resp.OK, *OverloadError for CodeOverload, *DrainingError for
// CodeDraining, *WireError for any other code, and a plain error for
// uncoded failures (statement errors, unknown commands).
func ResponseError(resp *Response) error {
	if resp.OK {
		return nil
	}
	switch resp.Code {
	case "":
		return errors.New(resp.Error)
	case CodeOverload:
		return &OverloadError{RetryAfterMS: resp.RetryAfterMS, Msg: resp.Error}
	case CodeDraining:
		return &DrainingError{Msg: resp.Error}
	default:
		return &WireError{Code: resp.Code, Msg: resp.Error, RetryAfterMS: resp.RetryAfterMS}
	}
}
