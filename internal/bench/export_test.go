package bench

// SharedEvidence hands the canonical fixture to the external test package,
// which (unlike this one) may import internal/report.
var SharedEvidence = evidence
