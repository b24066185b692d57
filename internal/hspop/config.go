package hspop

// Config calibrates the synthetic population. All counts are full-scale
// (matching the paper's February 2013 measurements); Scale shrinks the
// anonymous body of the population proportionally while always keeping
// the named Table II head services.
type Config struct {
	// Seed drives all generation randomness.
	Seed int64
	// Scale in (0,1] shrinks the population. 1.0 reproduces the paper's
	// 39,824 services; tests use ~0.05.
	Scale float64

	// --- Fig. 1 port-mix targets (counts among descriptor-bearing
	// services during the scan window) ---

	// SkynetBots answer port 55080 with the abnormal error.
	SkynetBots int
	// Web80Only / WebBoth / Web443Only partition content sites by
	// listener set.
	Web80Only  int
	WebBoth    int
	Web443Only int
	// SSHOnly services expose only port 22.
	SSHOnly int
	// TorChat / IRC / P4050 are the remaining named Fig. 1 ports.
	TorChat int
	IRC     int
	P4050   int
	// Misc services expose one uncommon port each.
	Misc int
	// MiscUniquePorts is how many distinct uncommon port numbers the
	// Misc services spread over (488 in the paper, for 495 total unique
	// ports).
	MiscUniquePorts int
	// MiscHTTPCount of the Misc services speak HTTP ("Other" row of
	// Table I); Misc8080 of those sit on port 8080.
	MiscHTTPCount int
	Misc8080      int
	// Dark services publish a descriptor but expose no ports.
	Dark int
	// Dead services exist (their addresses are collected) but publish no
	// descriptor during the scan window.
	Dead int

	// --- certificate targets (Section III) ---

	// CertTorHostCount 443-services present the TorHost CN;
	// CertDNSLeakCount leak a public DNS name; CertMismatchCount are
	// other self-signed mismatches. The remainder self-sign with a
	// matching CN.
	CertTorHostCount  int
	CertDNSLeakCount  int
	CertMismatchCount int

	// --- crawl-time churn (two months after the scan) ---

	// Survival probabilities by destination class.
	SurviveWeb80   float64
	SurviveWeb443  float64
	SurviveSSH     float64
	SurviveMiscTCP float64

	// --- content targets (Section IV) ---

	// PageShortFrac / PageErrorFrac / PageTorhostDefaultFrac are the
	// fractions of HTTP pages that are <20 words, HTML-wrapped errors,
	// and the TorHost default page, respectively. The remainder is
	// substantive content.
	PageShortFrac          float64
	PageErrorFrac          float64
	PageTorhostDefaultFrac float64
	// EnglishFrac is the fraction of substantive pages in English.
	EnglishFrac float64

	// PhishingClones is the number of vanity-prefix clones of the Silk
	// Road address (the paper found 15 addresses with prefix "silkroa",
	// two official and the rest phishing, at least one imitating the
	// login page).
	PhishingClones int

	// --- link graph (the paper's crawling-coverage motivation) ---

	// DirectoryLinkFraction is the share of the descriptor-publishing
	// population each directory site (Hidden-Wiki-style service) links
	// to. Three Hidden Wikis plus ahmia.fi covered ~1,657 of 39,824
	// addresses (~4%) at the time of the paper.
	DirectoryLinkFraction float64
	// WebOutlinkMean is the Poisson mean of outlinks on an ordinary
	// content site ("hidden services only rarely link to each other").
	WebOutlinkMean float64

	// --- popularity (Section V / Table II) ---

	// PhantomRequestFraction of all descriptor fetches target IDs that
	// were never published (0.8 in the paper).
	PhantomRequestFraction float64
	// PhantomUniqueIDs is the number of distinct never-published IDs
	// requested (≈23,000 in the paper).
	PhantomUniqueIDs int
	// PopularTail is how many services beyond the named head receive at
	// least one request (the paper resolved 3,140 addresses).
	PopularTail int
	// TailExponent is the power-law exponent of the popularity tail.
	TailExponent float64

	// Workers shards the population's identity derivation (SHA-1
	// permanent IDs and base32 onion addresses) across goroutines
	// (<= 0 means one per CPU). The derivation draws no randomness, so
	// the generated population is identical at every worker count.
	Workers int
}

// PaperConfig returns the full-scale configuration calibrated to the
// paper's reported counts. See DESIGN.md §4 for the derivation of each
// number.
func PaperConfig(seed int64) Config {
	return Config{
		Seed:  seed,
		Scale: 1.0,

		SkynetBots: 13844, // + 10 Skynet C&C = 13,854 port-55080 answers
		Web80Only:  2917,  // 4,027 port-80 minus dual-stack, Goldnet, BcMine
		WebBoth:    1100,
		Web443Only: 266, // 1,366 port-443 minus dual-stack
		SSHOnly:    1238,
		TorChat:    385,
		IRC:        113,
		P4050:      138,
		Misc:       886,

		MiscUniquePorts: 488, // 495 unique ports minus the 7 named ones
		MiscHTTPCount:   455, // Table I: 451 "Other" + 4 on port 8080
		Misc8080:        4,

		Dark: 3604,  // descriptor-bearing, no open ports
		Dead: 15313, // 39,824 collected − 24,511 with descriptors

		CertTorHostCount:  1168,
		CertDNSLeakCount:  34,
		CertMismatchCount: 57, // 1,225 self-signed mismatches − 1,168 TorHost

		SurviveWeb80:   0.929,  // 3,741 / 4,027
		SurviveWeb443:  0.9436, // 1,289 / 1,366
		SurviveSSH:     0.8837, // 1,094 / 1,238
		SurviveMiscTCP: 0.50,   // 535 of 1,067 non-HTTP oddballs

		// Non-dual-stack page mix; dual-stack (80+443) services use a
		// dedicated mix dominated by the TorHost default page (see
		// generator.sampleDualPage). Jointly calibrated so the crawl
		// funnel reproduces the paper's exclusion counts: 2,348 short,
		// 1,108 duplicates, 73 errors, 3,050 classified, 805 defaults.
		PageShortFrac:          0.34,
		PageErrorFrac:          0.02,
		PageTorhostDefaultFrac: 0.10,
		EnglishFrac:            0.8083, // 1,813 / 2,243 substantive pages

		PhishingClones: 13, // + the two official addresses = 15 "silkroa" prefixes

		DirectoryLinkFraction: 0.015,
		WebOutlinkMean:        0.25,

		PhantomRequestFraction: 0.80,
		PhantomUniqueIDs:       23010, // 29,123 unique IDs − 6,113 resolved
		PopularTail:            3100,  // ≈3,140 addresses minus the named head
		TailExponent:           1.4,
	}
}

// TestConfig returns a scaled-down configuration suitable for unit and
// integration tests.
func TestConfig(seed int64) Config {
	cfg := PaperConfig(seed)
	cfg.Scale = 0.05
	return cfg
}

// ScaledPhantomIDs returns the phantom descriptor-ID pool size at the
// configured scale.
func (c Config) ScaledPhantomIDs() int {
	return c.scaled(c.PhantomUniqueIDs, 50)
}

// scaled rounds a full-scale count down to the configured scale, keeping
// at least min.
func (c Config) scaled(n, min int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < min {
		v = min
	}
	return v
}
