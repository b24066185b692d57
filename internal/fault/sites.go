package fault

// The fault-site registry. Every injection point in the codebase is one
// variable below, made by register. A Site cannot be made anywhere else,
// so Hit, MustHit and Set only ever see registered sites, and register
// refuses a name twice.
//
// Naming convention: "<package>.<boundary>". Sites on paths with no
// error return (DriveWindow returns bare TrafficStats) are registered
// crash/slow-only; Parse and Set reject err-mode rules for them.

var (
	// SiteStoreWrite fires before the result store writes an object's
	// temp file — a fault here loses the write but never the store.
	SiteStoreWrite = register("resultstore.write", true)

	// SiteStoreRename fires between fsync and the atomic rename — the
	// window where a torn publish would leave an orphan temp file.
	SiteStoreRename = register("resultstore.rename", true)

	// SiteStoreRead fires on the store's read path (object and key
	// lookups), modelling transient I/O errors under a live server.
	SiteStoreRead = register("resultstore.read", true)

	// SiteCheckpoint fires before a checkpoint snapshot is saved, the
	// boundary that decides how much window progress a crash loses.
	SiteCheckpoint = register("resultstore.checkpoint", true)

	// SiteTask fires at the DAG scheduler's per-task boundary, before
	// the task closure runs — retrying it never re-executes work.
	SiteTask = register("parallel.task", true)

	// SiteTrawlStep fires at each trawl step boundary, after the
	// previous step's accumulators are complete.
	SiteTrawlStep = register("trawl.step", true)

	// SiteTrackingWindow fires before each consensus document the
	// tracking sweep folds.
	SiteTrackingWindow = register("tracking.window", true)

	// SiteSimWindow fires as a traffic window starts driving.
	// DriveWindow has no error return, so this site is crash/slow only.
	SiteSimWindow = register("simnet.window", false)
)

// siteCaps declares which modes a site supports.
type siteCaps struct {
	// errOK permits ModeErr: the call site propagates Hit's error.
	errOK bool
}

// sites maps every registered site to its capabilities.
var sites = map[Site]siteCaps{}

// register adds the named site to the registry and returns it. It
// panics if the name is already registered.
func register(name string, errOK bool) Site {
	s := Site{name: name}
	if _, dup := sites[s]; dup {
		panic("fault: site " + name + " registered twice")
	}
	sites[s] = siteCaps{errOK: errOK}
	return s
}
