// Package streamcoarsen is the public API of this repository: a
// reproduction of "Generalizable Reinforcement Learning-Based Coarsening
// Model for Resource Allocation over Large and Diverse Stream Processing
// Graphs" (IPDPS 2023).
//
// The package re-exports the pieces a downstream user composes:
//
//   - Graph / Node / Edge / Placement — the stream-processing DAG model
//     (internal/stream);
//   - Cluster and Simulate — the throughput simulator standing in for
//     CEPSim (internal/sim);
//   - Model / Pipeline — the edge-collapsing coarsening model and the
//     coarsening–partitioning framework (internal/core);
//   - Trainer — REINFORCE training with Metis-guided cold start and
//     curriculum levels (internal/rl);
//   - MetisPlacer / MetisOraclePlacer — the multilevel partitioner
//     (internal/metis, internal/placer);
//   - GenerateGraphs and the experiment Settings (internal/gen);
//   - Harness — the evaluation harness regenerating the paper's tables
//     and figures (internal/eval).
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	cluster := streamcoarsen.DefaultCluster(10, 1000)
//	setting := streamcoarsen.MediumSetting()
//	data := setting.Generate()
//	model := streamcoarsen.NewModel(streamcoarsen.DefaultModelConfig())
//	pipe := streamcoarsen.NewPipeline(model)
//	trainer := streamcoarsen.NewTrainer(streamcoarsen.DefaultTrainConfig(), model, pipe)
//	trainer.TrainOn(data.Train, cluster)
//	alloc := pipe.Allocate(data.Test[0], cluster)
package streamcoarsen

import (
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/placer"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Graph model re-exports.
type (
	// Graph is a stream-processing DAG of operators.
	Graph = stream.Graph
	// Node is one operator (instructions/tuple, payload, selectivity).
	Node = stream.Node
	// Edge is a directed operator connection carrying tuples.
	Edge = stream.Edge
	// Placement maps operators to devices.
	Placement = stream.Placement
	// CoarseMap maps operators to super-nodes after edge collapsing.
	CoarseMap = stream.CoarseMap
)

// Simulator re-exports.
type (
	// Cluster describes the computing environment.
	Cluster = sim.Cluster
	// SimResult is a simulated steady state.
	SimResult = sim.Result
)

// Core framework re-exports.
type (
	// Model is the edge-collapsing coarsening model (the paper's
	// contribution).
	Model = core.Model
	// ModelConfig sets the model's dimensions.
	ModelConfig = core.Config
	// Pipeline is the coarsening–partitioning framework.
	Pipeline = core.Pipeline
	// Allocation is one end-to-end allocation result.
	Allocation = core.Allocation
	// MultilevelConfig controls recursive multilevel allocation.
	MultilevelConfig = core.MultilevelConfig
	// Decision is a per-edge collapse decision vector.
	Decision = core.Decision
	// Placer is the partitioning-model interface.
	Placer = placer.Placer
	// Trainer trains the model with REINFORCE (§III).
	Trainer = rl.Trainer
	// TrainConfig controls training.
	TrainConfig = rl.Config
	// CurriculumLevel is one stage of size-based curriculum training.
	CurriculumLevel = rl.Level
)

// Dataset re-exports.
type (
	// Setting is one experimental configuration from §V.
	Setting = gen.Setting
	// Dataset is a generated train/test split.
	Dataset = gen.Dataset
	// GenConfig controls synthetic graph generation (Fig. 4).
	GenConfig = gen.Config
)

// Evaluation re-exports.
type (
	// Harness regenerates the paper's tables and figures.
	Harness = eval.Harness
	// Budget sets the harness's training effort.
	Budget = eval.Budget
)

// NewGraph returns an empty graph with the given source tuple rate.
func NewGraph(sourceRate float64) *Graph { return stream.NewGraph(sourceRate) }

// DefaultCluster returns the paper's environment: devices of 1.25e3 MIPS
// with links of the given Mbps.
func DefaultCluster(devices int, mbps float64) Cluster { return sim.DefaultCluster(devices, mbps) }

// Simulate computes the steady-state throughput of a placement.
func Simulate(g *Graph, p *Placement, c Cluster) (SimResult, error) { return sim.Simulate(g, p, c) }

// Reward returns the relative throughput r = T/I of a placement.
func Reward(g *Graph, p *Placement, c Cluster) float64 { return sim.Reward(g, p, c) }

// DefaultMultilevelConfig returns the default recursion bounds for
// Pipeline.AllocateMultilevel.
func DefaultMultilevelConfig() MultilevelConfig { return core.DefaultMultilevelConfig() }

// DefaultModelConfig returns the CPU-scale model configuration.
func DefaultModelConfig() ModelConfig { return core.DefaultConfig() }

// NewModel constructs a coarsening model.
func NewModel(cfg ModelConfig) *Model { return core.New(cfg) }

// NewPipeline wraps a model with the Metis partitioner — the paper's best
// configuration (Coarsen+Metis).
func NewPipeline(m *Model) *Pipeline {
	return &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
}

// DefaultTrainConfig returns the paper-shaped training configuration.
func DefaultTrainConfig() TrainConfig { return rl.DefaultConfig() }

// NewTrainer builds a REINFORCE trainer for the model/pipeline pair.
func NewTrainer(cfg TrainConfig, m *Model, p *Pipeline) *Trainer { return rl.NewTrainer(cfg, m, p) }

// MetisPlacer returns the multilevel partitioner as a placement stage.
func MetisPlacer(seed int64) Placer { return placer.Metis{Seed: seed} }

// MetisOraclePlacer returns the device-count-sweeping oracle variant.
func MetisOraclePlacer(seed int64) Placer { return placer.MetisOracle{Seed: seed} }

// MetisPartition partitions a graph directly (the non-learned baseline).
func MetisPartition(g *Graph, parts int, seed int64) *Placement {
	return metis.Partition(g, metis.Options{Parts: parts, Seed: seed})
}

// Experiment settings from §V.
func SmallSetting() Setting    { return gen.Small() }
func Medium5KSetting() Setting { return gen.Medium5K() }
func MediumSetting() Setting   { return gen.Medium() }
func LargeSetting() Setting    { return gen.Large() }
func XLargeSetting() Setting   { return gen.XLarge() }
func HugeSetting() Setting     { return gen.Huge() }
func ExcessSetting() Setting   { return gen.Excess() }

// AllSettings lists every preset in evaluation order.
func AllSettings() []Setting { return gen.AllSettings() }

// NewHarness builds the experiment harness; scale multiplies dataset
// sizes (1 = preset sizes).
func NewHarness(scale float64, budget Budget) *Harness { return eval.NewHarness(scale, budget) }

// DefaultBudget is the full-run training budget; QuickBudget suits tests.
func DefaultBudget() Budget { return eval.DefaultBudget() }

// QuickBudget is a seconds-scale training budget.
func QuickBudget() Budget { return eval.QuickBudget() }
