// Package gnnmark is a pure-Go reproduction of "GNNMark: A Benchmark Suite
// to Characterize Graph Neural Network Training on GPUs" (ISPASS 2021).
//
// It bundles eight GNN training workloads (PinSAGE, STGCN, DeepGCN,
// GraphWriter, k-GNN low/high, ARGA, Tree-LSTM), a from-scratch tensor /
// autograd / neural-network stack they train on, and an analytical V100
// performance model that turns every tensor operation into the profiler
// counters the paper reports: execution-time breakdown by operation class,
// instruction mix, GFLOPS/GIOPS, stall attribution, cache hit rates, memory
// divergence, host-to-device transfer sparsity, and multi-GPU scaling.
//
// This file is the public facade over the internal packages. Typical use:
//
//	res, err := gnnmark.Run(gnnmark.RunConfig{Workload: "STGCN"})
//	fmt.Print(res.Report.String())
//
// or regenerate a whole figure of the paper:
//
//	suite, _ := gnnmark.Characterize(gnnmark.RunConfig{Epochs: 3})
//	fig2, _ := suite.Figure("fig2")
//	fmt.Print(fig2.Text())
package gnnmark

import (
	"gnnmark/internal/bench"
	"gnnmark/internal/core"
)

// RunConfig configures one characterization run; see core.RunConfig.
type RunConfig = core.RunConfig

// RunResult is the outcome of one characterization run.
type RunResult = core.RunResult

// Spec is one Table I row of the suite registry.
type Spec = core.Spec

// Suite is a full-suite characterization; Figure(id) and Figures() build
// Figures 2-8 and M from it.
type Suite = bench.Suite

// Figure is one table or figure of the evaluation as data; Text renders it.
type Figure = bench.Figure

// ScalingResult is one workload's Figure 9 strong-scaling series.
type ScalingResult = bench.ScalingResult

// Registry returns the eight workloads with their Table I metadata.
func Registry() []Spec { return core.Registry() }

// Run characterizes a single workload.
func Run(cfg RunConfig) (RunResult, error) { return core.Run(cfg) }

// Characterize runs the full suite (every workload, PSAGE on both datasets)
// and returns the suite the figures are built from.
func Characterize(cfg RunConfig) (*Suite, error) { return bench.Characterize(cfg) }

// Table1 renders the suite inventory.
func Table1() string { return bench.Table1().Text() }

// Fig9 runs the multi-GPU strong-scaling study (1/2/4 simulated V100s).
func Fig9(cfg RunConfig) ([]ScalingResult, error) { return bench.Fig9(cfg) }

// FormatFig9 renders a Fig9 result set.
func FormatFig9(results []ScalingResult) string { return bench.Fig9Figure(results).Text() }
