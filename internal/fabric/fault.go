package fabric

// Fault injection for the dead-peer test matrix. The owner-side fill
// handler consults a FaultFunc at each protocol stage; tests script it
// to kill, hang, or corrupt the peer exactly there, proving every
// requester degrades to a local compile with no poisoned waiters. The
// hook is nil in production.

// Stage is a point in the fill protocol where an owner can die.
type Stage string

const (
	// StageAccept: the fill request has been read, before any compile
	// or cache work.
	StageAccept Stage = "accept"
	// StageEntry: the entry is encoded, before any byte is written.
	StageEntry Stage = "entry"
	// StageBody: the whole envelope — headers, the entry's full
	// Content-Length among them — and half the entry have been written
	// (death here leaves the requester short of the promised bytes).
	StageBody Stage = "body"
)

// Fault is the scripted behavior at a stage.
type Fault int

const (
	// FaultNone proceeds normally.
	FaultNone Fault = iota
	// FaultHang blocks until the requester gives up (it observes its
	// own fill deadline, never the owner's mercy).
	FaultHang
	// FaultDie aborts the connection (at StageBody: after a partial
	// body — the mid-stream death of a SIGKILLed owner).
	FaultDie
	// Fault500 answers an internal error.
	Fault500
	// FaultCorrupt flips bytes in the encoded entry after its checksum
	// was taken, so the requester's end-to-end verification must
	// reject it.
	FaultCorrupt
	// FaultStale rewrites the entry's route key (checksum kept
	// consistent), modeling an owner serving an answer for the wrong
	// compilation; the requester's key check must reject it.
	FaultStale
)

// FaultFunc scripts the owner's behavior per stage; nil means healthy.
type FaultFunc func(Stage) Fault
