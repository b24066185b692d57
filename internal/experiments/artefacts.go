package experiments

import (
	"torhs/internal/core/content"
	"torhs/internal/core/deanon"
	"torhs/internal/core/scan"
	"torhs/internal/report"
)

// The paper registry's artefact types: thin typed wrappers that pair
// each experiment's result with its document — the typed sections of
// the study output. The full study render is exactly the concatenation
// of these documents' text encodings in registration order, which is
// what makes subset runs byte-identical to their slice of the full run.

type collectionArtefact struct{ res *CollectionComparison }

func (a *collectionArtefact) Document() *report.Document {
	return report.New(ExpCollection, CollectionSection(a.res))
}

type scanArtefact struct {
	res   *scan.Result
	audit *scan.CertAudit
}

func (a *scanArtefact) Document() *report.Document {
	return report.New(ExpScan, Fig1Section(a.res), CertAuditSection(a.audit))
}

type contentArtefact struct{ res *content.Result }

func (a *contentArtefact) Document() *report.Document {
	return report.New(ExpContent, TableISection(a.res), LanguagesSection(a.res), Fig2Section(a.res))
}

type prefixArtefact struct{ clusters []PrefixCluster }

func (a *prefixArtefact) Document() *report.Document {
	return report.New(ExpPrefixAudit, PrefixAuditSection(a.clusters))
}

type popularityArtefact struct {
	res *PopularityResult
	// topN is Table II's head size, threaded from Config (the scenario
	// presets set it; DefaultPopularityTopN when unset).
	topN int
}

func (a *popularityArtefact) Document() *report.Document {
	return report.New(ExpPopularity, TableIISection(a.res, a.topN))
}

type deanonArtefact struct{ rep *deanon.Report }

func (a *deanonArtefact) Document() *report.Document {
	return report.New(ExpDeanon, Fig3Section(a.rep))
}

type serviceDeanonArtefact struct{ rep *deanon.ServiceReport }

func (a *serviceDeanonArtefact) Document() *report.Document {
	return report.New(ExpServiceDeanon, ServiceDeanonSection(a.rep))
}

type trackingArtefact struct{ res *TrackingResult }

func (a *trackingArtefact) Document() *report.Document {
	return report.New(ExpTracking, TrackingSection(a.res))
}
