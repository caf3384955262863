package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// DNN is a conventional convolutional network on euclidean (image) data:
// the comparator behind the paper's central contrast, "the execution time
// breakdown across operations in a GNN differs greatly from the mix in a
// typical DNN ... where GEMM (convolutional and fully-connected layers)
// dominate the execution". It is not part of the GNNMark suite; the
// contrast harness trains it with the same profiler attached and compares
// operation mixes.
type DNN struct {
	trainer

	convs  []*nn.Conv2D
	norms  []*nn.BatchNorm2D
	fc1    *nn.Linear
	fc2    *nn.Linear
	images *tensor.Tensor // (N, C, H, W) synthetic image set
	labels []int32

	imgSize   int
	channels  []int
	batch     int
	batches   int
	flatWidth int
}

// DNNConfig holds the baseline CNN's hyperparameters.
type DNNConfig struct {
	ImageSize int   // square input edge (default 32)
	Channels  []int // conv widths (default {48, 96, 128})
	BatchSize int   // images per batch (default 16)
	Batches   int   // batches per epoch (default 4)
}

func (c *DNNConfig) defaults() {
	if c.ImageSize == 0 {
		c.ImageSize = 32
	}
	if len(c.Channels) == 0 {
		c.Channels = []int{48, 96, 128}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Batches == 0 {
		c.Batches = 4
	}
}

// NewDNN builds the baseline CNN with a seeded synthetic image set whose
// labels correlate with channel-mean statistics (so training converges).
func NewDNN(env *Env, cfg DNNConfig) *DNN {
	cfg.defaults()
	m := &DNN{
		trainer:  trainer{env: env},
		imgSize:  cfg.ImageSize,
		channels: cfg.Channels,
		batch:    cfg.BatchSize,
		batches:  cfg.Batches,
	}
	in := 3
	for i, ch := range cfg.Channels {
		conv := nn.NewConv2D(env.RNG, "dnn.conv", in, ch, 3, 3)
		conv.PadH, conv.PadW = 1, 1
		if i > 0 {
			conv.StrideH, conv.StrideW = 2, 2
		}
		m.convs = append(m.convs, conv)
		m.norms = append(m.norms, nn.NewBatchNorm2D("dnn.bn", ch))
		in = ch
	}
	// Spatial size after the pool and the strided convs.
	size := cfg.ImageSize / 2 // max-pool after the first stage
	for i := range cfg.Channels {
		if i > 0 {
			size = (size + 1) / 2
		}
	}
	m.flatWidth = in * size * size
	m.fc1 = nn.NewLinear(env.RNG, "dnn.fc1", m.flatWidth, 64, true)
	m.fc2 = nn.NewLinear(env.RNG, "dnn.fc2", 64, 10, true) // 10 output classes
	mods := []nn.Module{m.fc1, m.fc2}
	for i := range m.convs {
		mods = append(mods, m.convs[i], m.norms[i])
	}
	m.opt = nn.NewAdam(env.E, nn.CollectParams(mods...), 0.003)

	images := cfg.BatchSize * cfg.Batches // the synthetic dataset is one epoch
	m.images = tensor.Randn(env.RNG, 0.5, images, 3, cfg.ImageSize, cfg.ImageSize)
	m.labels = make([]int32, images)
	for i := range m.labels {
		// Label from a simple image statistic so the task is learnable.
		var s float64
		base := i * 3 * cfg.ImageSize * cfg.ImageSize
		for j := 0; j < cfg.ImageSize; j++ {
			s += float64(m.images.Data()[base+j])
		}
		if s > 0 {
			m.labels[i] = int32(i % 2)
		} else {
			m.labels[i] = int32((i + 1) % 2)
		}
	}
	return m
}

// DDPCompatible implements Workload: every replica trains the whole image
// set (the DNN never calls Env.Shard).
func (m *DNN) DDPCompatible() bool { return false }

// IterationsPerEpoch implements Workload.
func (m *DNN) IterationsPerEpoch() int { return m.batches }

// TrainEpoch implements Workload.
func (m *DNN) TrainEpoch() float64 {
	var total float64
	plane := 3 * m.imgSize * m.imgSize
	for it := 0; it < m.batches; it++ {
		m.env.iter()
		e := m.env.E

		start := (it * m.batch) % m.images.Dim(0)
		n := min(m.batch, m.images.Dim(0)-start)
		x := tensor.New(n, 3, m.imgSize, m.imgSize)
		copy(x.Data(), m.images.Data()[start*plane:(start+n)*plane])
		labels := m.labels[start : start+n]
		e.CopyH2D("dnn.images", x)

		t := autograd.NewTape(e)
		h := t.Const(x)
		for i := range m.convs {
			h = t.ReLU(m.norms[i].Forward(t, m.convs[i].Forward(t, h)))
			if i == 0 {
				h = t.MaxPool2D(h, 2) // classic conv->pool stage
			}
		}
		flat := t.Reshape(h, n, m.flatWidth)
		logits := m.fc2.Forward(t, t.ReLU(m.fc1.Forward(t, flat)))
		loss := t.CrossEntropy(logits, labels)

		m.env.Step(t, loss, m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(m.batches)
}
