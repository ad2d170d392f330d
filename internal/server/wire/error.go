package wire

import (
	"fmt"
	"time"
)

// Error codes carried in ErrorResponse. Mutation codes mirror the kcore
// sentinel errors one-to-one so clients can branch without string matching.
const (
	// CodeBadRequest: the request body or a parameter was malformed
	// (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeSelfLoop: an update named an edge (v, v) (HTTP 422).
	CodeSelfLoop = "self_loop"
	// CodeVertexRange: an update named a vertex id that is negative or
	// above 2^31-1 (HTTP 422).
	CodeVertexRange = "vertex_range"
	// CodeDuplicateEdge: an inserted edge was already present (HTTP 409).
	CodeDuplicateEdge = "duplicate_edge"
	// CodeMissingEdge: a removed edge was not present (HTTP 409).
	CodeMissingEdge = "missing_edge"
	// CodeBatchTooLarge: the batch exceeded the server's max-batch limit
	// (HTTP 413).
	CodeBatchTooLarge = "batch_too_large"
	// CodeOverloaded: the ingest coalescer's pending-update budget is
	// exhausted; retry later (HTTP 429).
	CodeOverloaded = "overloaded"
	// CodeShuttingDown: the server is draining and no longer accepts writes
	// (HTTP 503).
	CodeShuttingDown = "shutting_down"
	// CodeDegraded: the server entered degraded read-only mode because its
	// durability layer is failing (sealed write-ahead log or repeated append
	// failures); writes are rejected until the automatic recovery probe
	// heals the log. The response carries a Retry-After header — the write
	// IS safe to retry, unlike "persistence_failed" (HTTP 503).
	CodeDegraded = "degraded"
	// CodeNotFound: no such endpoint or resource (HTTP 404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the endpoint exists but not for this HTTP
	// method (HTTP 405; the Allow header names the right one).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeInternal: unexpected server-side failure (HTTP 500).
	CodeInternal = "internal"
	// CodePersistenceFailed: the batch WAS applied in memory but could not
	// be made durable (the write-ahead log append failed). Do NOT retry the
	// batch — it would double-apply; resynchronize and alert instead
	// (HTTP 500).
	CodePersistenceFailed = "persistence_failed"
	// CodeNoPersistence: the snapshot endpoint requires the server to run
	// with a data directory (HTTP 409).
	CodeNoPersistence = "no_persistence"
	// CodeReadOnly: the server does not accept writes — it is a replication
	// follower or runs with -read-only. Send the mutation to the primary
	// (the message names it on followers) (HTTP 403).
	CodeReadOnly = "read_only"
	// CodeNoReplication: the replication endpoint requires the server to
	// run as a replicating primary (HTTP 409).
	CodeNoReplication = "no_replication"
	// CodeUnsupportedMedia: the request declared a Content-Type the endpoint
	// does not speak, or its Accept header admits none of the encodings the
	// endpoint can produce. The message names the supported types (HTTP 415).
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeUnknownTenant: the tenant named in a /v1/t/{tenant}/... path is
	// neither resident nor on disk. Tenants are created by their first write
	// (POST .../batch); reads of never-written names get this (HTTP 404).
	CodeUnknownTenant = "unknown_tenant"
	// CodeTenantLimit: admitting the tenant would exceed the server's
	// resident-tenant bound (-max-tenants). Retry after an idle tenant is
	// evicted, or evict one explicitly (HTTP 429, Retry-After).
	CodeTenantLimit = "tenant_limit"
)

// Error is the structured error body every non-2xx response carries,
// wrapped in ErrorResponse. It implements the error interface so the Go
// client returns it directly.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// Index, when non-nil, is the position of the offending update within
	// the submitted batch (mutation errors only).
	Index *int `json:"index,omitempty"`
	// Update, when non-nil, is the offending update (mutation errors only).
	Update *Update `json:"update,omitempty"`
	// Status is the HTTP status the error was served with. It is set by the
	// client from the response and not serialized.
	Status int `json:"-"`
	// RetryAfter is the parsed Retry-After header of a 429/503 response
	// (zero when absent). Set by the client, not serialized.
	RetryAfter time.Duration `json:"-"`
}

// Error renders the wire error for logs and error chains.
func (e *Error) Error() string {
	if e.Index != nil && e.Update != nil {
		return fmt.Sprintf("kcore-serve: %s: %s (update %d: %s %d-%d)",
			e.Code, e.Message, *e.Index, e.Update.Op, e.Update.U, e.Update.V)
	}
	return fmt.Sprintf("kcore-serve: %s: %s", e.Code, e.Message)
}

// ErrorResponse is the envelope of every non-2xx JSON response.
type ErrorResponse struct {
	Error *Error `json:"error"`
}
