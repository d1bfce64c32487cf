package serve

// compat.go pins the package's pre-split surface onto the layered packages
// below it. The serving stack used to be one monolith; the wire codec now
// lives in internal/wire and the log in internal/wal, but every name a
// caller could reach before the split — Event, JobSpec, the WAL option and
// stats types, the typed error values, the dump reader/writer — keeps
// working from this package as an alias, so cmd/, examples/, and tests
// need no churn and errors.Is identities are preserved (a var alias is the
// same value, not a lookalike). compat_alias_test.go asserts the
// identities at compile time.

import (
	"errors"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Data types that travel on the wire.
type (
	// Event is the per-task monitoring event (now wire.Event).
	Event = wire.Event
	// EventKind discriminates task lifecycle events.
	EventKind = wire.EventKind
	// JobSpec declares a job before its events arrive.
	JobSpec = wire.JobSpec
	// RefitMode selects a job's checkpoint refit strategy.
	RefitMode = wire.RefitMode
)

// Event kinds.
const (
	EventTaskStart  = wire.EventTaskStart
	EventHeartbeat  = wire.EventHeartbeat
	EventTaskFinish = wire.EventTaskFinish
	EventJobFinish  = wire.EventJobFinish
)

// Refit modes.
const (
	RefitModeDefault = wire.RefitModeDefault
	RefitScratch     = wire.RefitScratch
	RefitWarm        = wire.RefitWarm
)

// ParseRefitMode parses a -refit-mode flag value.
func ParseRefitMode(s string) (RefitMode, error) { return wire.ParseRefitMode(s) }

// Wire codec surface.
type (
	// WireReader decodes a framed dump stream (now wire.Reader).
	WireReader = wire.Reader
	// WireWriter encodes a framed dump stream (now wire.Writer).
	WireWriter = wire.Writer
)

// WireVersion is the current frame-format version.
const WireVersion = wire.Version

// NewWireReader wraps r for framed decoding.
func NewWireReader(r interface{ Read([]byte) (int, error) }) *WireReader {
	return wire.NewReader(r)
}

// NewWireWriter wraps w for framed encoding (header written lazily).
func NewWireWriter(w interface{ Write([]byte) (int, error) }) *WireWriter {
	return wire.NewWriter(w)
}

// EncodeSpec appends sp as one framed element to b.
func EncodeSpec(b []byte, sp JobSpec) ([]byte, error) { return wire.EncodeSpec(b, sp) }

// EncodeEvent appends ev as one framed element to b.
func EncodeEvent(b []byte, ev Event) ([]byte, error) { return wire.EncodeEvent(b, ev) }

// WriteDump records a serving workload: every spec first (registration
// precedes traffic, exactly as StartJob must precede Ingest), then the
// event stream in feed order (now wire.WriteDump).
func WriteDump(w interface{ Write([]byte) (int, error) }, specs []JobSpec, events []Event) error {
	return wire.WriteDump(w, specs, events)
}

// AppendHeader appends the dump stream header to b.
func AppendHeader(b []byte) []byte { return wire.AppendHeader(b) }

// Wire error identities (same values as before the split).
var (
	ErrBadMagic  = wire.ErrBadMagic
	ErrVersion   = wire.ErrVersion
	ErrTruncated = wire.ErrTruncated
	ErrCorrupt   = wire.ErrCorrupt
)

// WAL surface.
type (
	// WAL is the sharded write-ahead log (now wal.WAL).
	WAL = wal.WAL
	// WALOptions configures durability, rotation, and checkpoint policy.
	WALOptions = wal.Options
	// WALFS abstracts the filesystem for crash-injection tests.
	WALFS = wal.FS
	// WALFile is the file handle WALFS hands out.
	WALFile = wal.File
	// WALStats is the log's observable state.
	WALStats = wal.Stats
	// WALStreamStats is one stream's slice of WALStats.
	WALStreamStats = wal.StreamStats
	// RecoveryStats describes what Recover found and applied.
	RecoveryStats = wal.RecoveryStats
	// WALVerifyReport is the offline verifier's result.
	WALVerifyReport = wal.VerifyReport
	// WALVerifyStream is one stream's slice of a verify report.
	WALVerifyStream = wal.VerifyStream
)

// DefaultWALSegmentBytes is the rotation threshold when
// WALOptions.SegmentBytes is zero.
const DefaultWALSegmentBytes = wal.DefaultSegmentBytes

// WAL error identities (same values as before the split).
var (
	ErrWALFailed = wal.ErrFailed
	ErrWALClosed = wal.ErrClosed
	ErrWALGap    = wal.ErrGap
)

// VerifyWAL structurally checks a WAL directory without mutating it.
func VerifyWAL(dir string, opts WALOptions) (WALVerifyReport, error) { return wal.Verify(dir, opts) }

// Unexported bridges so the core's call sites read as they always have.
func mix64(x uint64) uint64          { return wire.Mix64(x) }
func getObservation(n int) []float64 { return wire.GetObservation(n) }
func putObservation(s []float64)     { wire.PutObservation(s) }

// RecycleAfterIngest settles ownership of ev's feature slice after the
// Ingest that consumed it returned err. The pooled slice is recycled when
// the server did not retain it: heartbeats hand their slice to the task
// state on success (and on WAL append failures, the one rejection that
// retains the in-memory observation), every other kind never retains
// features, and a rejected event of any kind was never stored. Either way
// ev is stripped of the slice and its pool tag, so a reused loop Event can
// never carry a stale reference into a later recycle decision. Exported
// for the wire front ends (internal/servehttp) that drive pooled decode.
func RecycleAfterIngest(ev *Event, err error) {
	retained := ev.Kind == EventHeartbeat && (err == nil ||
		errors.Is(err, ErrWALFailed) || errors.Is(err, ErrWALClosed))
	if ev.Pooled && ev.Features != nil && !retained {
		putObservation(ev.Features)
	}
	ev.Features = nil
	ev.Pooled = false
}
