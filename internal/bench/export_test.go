package bench

// EveryFigure hands the fixture to the external test package, which (unlike
// this one) may import internal/report.
var EveryFigure = everyFigure
