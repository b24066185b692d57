package fault

// The fault-site registry. Every injection point in the codebase is one
// constant below, annotated //torhs:faultsite so the faultsite analyzer
// can prove (a) the directive name matches the constant's value, (b)
// names are globally unique, (c) every marked constant is a key of the
// sites map, and (d) call sites only ever pass these constants — never
// inline strings — to Hit/MustHit.
//
// Naming convention: "<package>.<boundary>". Sites on paths with no
// error return (DriveWindow returns bare TrafficStats) are registered
// crash/slow-only; Parse and Set reject err-mode rules for them.

const (
	// SiteStoreWrite fires before the result store writes an object's
	// temp file — a fault here loses the write but never the store.
	//
	//torhs:faultsite resultstore.write
	SiteStoreWrite Site = "resultstore.write"

	// SiteStoreRename fires between fsync and the atomic rename — the
	// window where a torn publish would leave an orphan temp file.
	//
	//torhs:faultsite resultstore.rename
	SiteStoreRename Site = "resultstore.rename"

	// SiteStoreRead fires on the store's read path (object and key
	// lookups), modelling transient I/O errors under a live server.
	//
	//torhs:faultsite resultstore.read
	SiteStoreRead Site = "resultstore.read"

	// SiteCheckpoint fires before a checkpoint snapshot is saved, the
	// boundary that decides how much window progress a crash loses.
	//
	//torhs:faultsite resultstore.checkpoint
	SiteCheckpoint Site = "resultstore.checkpoint"

	// SiteTask fires at the DAG scheduler's per-task boundary, before
	// the task closure runs — retrying it never re-executes work.
	//
	//torhs:faultsite parallel.task
	SiteTask Site = "parallel.task"

	// SiteTrawlStep fires at each trawl step boundary, after the
	// previous step's accumulators are complete.
	//
	//torhs:faultsite trawl.step
	SiteTrawlStep Site = "trawl.step"

	// SiteTrackingWindow fires before each consensus document the
	// tracking sweep folds.
	//
	//torhs:faultsite tracking.window
	SiteTrackingWindow Site = "tracking.window"

	// SiteSimWindow fires as a traffic window starts driving.
	// DriveWindow has no error return, so this site is crash/slow only.
	//
	//torhs:faultsite simnet.window
	SiteSimWindow Site = "simnet.window"
)

// siteCaps declares which modes a site supports.
type siteCaps struct {
	// errOK permits ModeErr: the call site propagates Hit's error.
	errOK bool
}

// sites is the registry the faultsite analyzer checks the constants
// against. Every key must be one of the marked constants above, and
// every marked constant must appear here.
var sites = map[Site]siteCaps{
	SiteStoreWrite:     {errOK: true},
	SiteStoreRename:    {errOK: true},
	SiteStoreRead:      {errOK: true},
	SiteCheckpoint:     {errOK: true},
	SiteTask:           {errOK: true},
	SiteTrawlStep:      {errOK: true},
	SiteTrackingWindow: {errOK: true},
	SiteSimWindow:      {errOK: false},
}
