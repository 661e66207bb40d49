use crate::generators;
use dota_tensor::rng::SeededRng;

/// The five benchmarks of the paper's evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Question answering (SQuAD-like answer lookup). Paper seq len: 384.
    Qa,
    /// Image classification (LRA CIFAR10-like marker pairing). Paper: 1K.
    Image,
    /// Text classification (IMDb-like salient-token majority). Paper: 2K.
    Text,
    /// Document retrieval (AAN-like cross-document matching). Paper: 4K.
    Retrieval,
    /// Causal language modeling (WikiText-like copy-recall). Paper: 4K.
    Lm,
}

impl Benchmark {
    /// All five benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::Qa,
        Benchmark::Image,
        Benchmark::Text,
        Benchmark::Retrieval,
        Benchmark::Lm,
    ];

    /// Sequence length used in the paper's evaluation.
    pub fn paper_seq_len(self) -> usize {
        match self {
            Benchmark::Qa => 384,
            Benchmark::Image => 1024,
            Benchmark::Text => 2048,
            Benchmark::Retrieval => 4096,
            Benchmark::Lm => 4096,
        }
    }

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Qa => "QA",
            Benchmark::Image => "Image",
            Benchmark::Text => "Text",
            Benchmark::Retrieval => "Retrieval",
            Benchmark::Lm => "LM",
        }
    }

    /// `true` if the benchmark is causal language modeling (metric:
    /// perplexity, lower is better) rather than classification (accuracy).
    pub fn is_lm(self) -> bool {
        matches!(self, Benchmark::Lm)
    }
}

/// One example: a token sequence and (for classification) its label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Token ids.
    pub ids: Vec<usize>,
    /// Class label. For LM tasks this is 0 and unused — the targets are the
    /// shifted ids.
    pub label: usize,
}

/// Specification of a synthetic task instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Which benchmark shape to generate.
    pub benchmark: Benchmark,
    /// Sequence length of every sample.
    pub seq_len: usize,
    /// Vocabulary size (generators reserve the low ids for structure
    /// tokens).
    pub vocab_size: usize,
    /// Number of classes (ignored for LM).
    pub n_classes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TaskSpec {
    /// Number of low token ids reserved for structure (markers, symbols,
    /// facts) by this task's generator; fillers start above this.
    pub fn structure_tokens(&self) -> usize {
        match self.benchmark {
            // QUERY/SEP/etc + question symbols + composite fact tokens.
            Benchmark::Qa => 4 + crate::generators::QA_KEYS * (1 + self.n_classes),
            _ => 16,
        }
    }
}

impl TaskSpec {
    /// Shortest sequence the synthetic generators are built for: they
    /// plant markers, facts and distractors at distinct positions.
    pub const MIN_SEQ_LEN: usize = 16;

    /// A scaled-down spec suitable for training the tiny models in tests
    /// and experiments: same structure as the paper task, shorter sequence.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is below [`Self::MIN_SEQ_LEN`].
    pub fn tiny(benchmark: Benchmark, seq_len: usize, seed: u64) -> Self {
        let min = Self::MIN_SEQ_LEN;
        assert!(seq_len >= min, "synthetic tasks need seq_len >= {min}");
        let (vocab_size, n_classes) = match benchmark {
            Benchmark::Qa => (40, 4),
            Benchmark::Image => (32, 4),
            Benchmark::Text => (32, 2),
            Benchmark::Retrieval => (32, 2),
            Benchmark::Lm => (24, 24),
        };
        Self {
            benchmark,
            seq_len,
            vocab_size,
            n_classes,
            seed,
        }
    }

    /// The paper-scale spec (sequence length from §5.1) — used for
    /// simulator-side experiments where no training happens.
    pub fn paper(benchmark: Benchmark, seed: u64) -> Self {
        let mut spec = Self::tiny(benchmark, Self::MIN_SEQ_LEN, seed);
        spec.seq_len = benchmark.paper_seq_len();
        spec
    }

    /// Generates a dataset of `n` samples.
    pub fn generate(&self, n: usize) -> Dataset {
        let mut rng = SeededRng::new(self.seed);
        let samples = (0..n)
            .map(|_| match self.benchmark {
                Benchmark::Qa => generators::qa(self, &mut rng),
                Benchmark::Image => generators::image(self, &mut rng),
                Benchmark::Text => generators::text(self, &mut rng),
                Benchmark::Retrieval => generators::retrieval(self, &mut rng),
                Benchmark::Lm => generators::lm(self, &mut rng),
            })
            .collect();
        Dataset {
            spec: self.clone(),
            samples,
        }
    }

    /// Generates a train/test pair with disjoint randomness.
    pub fn generate_split(&self, train: usize, test: usize) -> (Dataset, Dataset) {
        let train_ds = self.generate(train);
        let mut test_spec = self.clone();
        test_spec.seed = self.seed.wrapping_add(0x5eed_0001);
        let test_ds = test_spec.generate(test);
        (train_ds, test_ds)
    }
}

/// A generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    spec: TaskSpec,
    samples: Vec<Sample>,
}

impl Dataset {
    /// The generating spec.
    pub fn spec(&self) -> &TaskSpec {
        &self.spec
    }

    /// The samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterator over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_seq_lens_match_section_5_1() {
        assert_eq!(Benchmark::Qa.paper_seq_len(), 384);
        assert_eq!(Benchmark::Image.paper_seq_len(), 1024);
        assert_eq!(Benchmark::Text.paper_seq_len(), 2048);
        assert_eq!(Benchmark::Retrieval.paper_seq_len(), 4096);
        assert_eq!(Benchmark::Lm.paper_seq_len(), 4096);
    }

    #[test]
    fn generation_is_deterministic() {
        for b in Benchmark::ALL {
            let spec = TaskSpec::tiny(b, 32, 9);
            let a = spec.generate(5);
            let b2 = spec.generate(5);
            assert_eq!(a.samples(), b2.samples(), "{b:?}");
        }
    }

    #[test]
    fn all_samples_well_formed() {
        for b in Benchmark::ALL {
            let spec = TaskSpec::tiny(b, 48, 3);
            let ds = spec.generate(20);
            assert_eq!(ds.len(), 20);
            for s in &ds {
                assert_eq!(s.ids.len(), 48, "{b:?}");
                assert!(s.ids.iter().all(|&t| t < spec.vocab_size), "{b:?}");
                if !b.is_lm() {
                    assert!(s.label < spec.n_classes, "{b:?}");
                }
            }
        }
    }

    #[test]
    fn split_differs_between_train_and_test() {
        let spec = TaskSpec::tiny(Benchmark::Text, 32, 1);
        let (train, test) = spec.generate_split(10, 10);
        assert_ne!(train.samples(), test.samples());
    }

    #[test]
    fn labels_are_balanced_enough() {
        // A degenerate generator (all one class) would make accuracy
        // experiments meaningless.
        for b in [
            Benchmark::Qa,
            Benchmark::Image,
            Benchmark::Text,
            Benchmark::Retrieval,
        ] {
            let spec = TaskSpec::tiny(b, 32, 17);
            let ds = spec.generate(200);
            let mut counts = vec![0usize; spec.n_classes];
            for s in &ds {
                counts[s.label] += 1;
            }
            let max = *counts.iter().max().unwrap();
            assert!(
                max < 200 * 3 / 4,
                "{b:?} label distribution too skewed: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "seq_len >= 16")]
    fn tiny_rejects_short_sequences() {
        let _ = TaskSpec::tiny(Benchmark::Qa, 8, 0);
    }
}

impl Dataset {
    /// Returns a copy with the samples shuffled by a seeded RNG
    /// (deterministic per seed).
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut samples = self.samples.clone();
        rng.shuffle(&mut samples);
        Dataset {
            spec: self.spec.clone(),
            samples,
        }
    }

    /// Per-class sample counts (length `n_classes`). For LM datasets every
    /// sample counts toward class 0.
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.spec.n_classes.max(1)];
        let top = counts.len() - 1;
        for s in &self.samples {
            counts[s.label.min(top)] += 1;
        }
        counts
    }

    /// Splits off the first `n` samples into a new dataset, leaving the
    /// rest (useful for carving a validation slice from a training set).
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(
            n <= self.samples.len(),
            "split {n} beyond {}",
            self.samples.len()
        );
        let (a, b) = self.samples.split_at(n);
        (
            Dataset {
                spec: self.spec.clone(),
                samples: a.to_vec(),
            },
            Dataset {
                spec: self.spec.clone(),
                samples: b.to_vec(),
            },
        )
    }

    /// Iterator over mini-batches of `size` samples (the final batch may be
    /// smaller).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[Sample]> {
        assert!(size > 0, "batch size must be positive");
        self.samples.chunks(size)
    }
}

#[cfg(test)]
mod util_tests {
    use super::*;

    fn text_ds() -> Dataset {
        TaskSpec::tiny(Benchmark::Text, 24, 8).generate(50)
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let ds = text_ds();
        let a = ds.shuffled(1);
        let b = ds.shuffled(1);
        let c = ds.shuffled(2);
        assert_eq!(a.samples(), b.samples());
        assert_ne!(a.samples(), c.samples());
        // Same multiset of samples.
        let mut orig: Vec<_> = ds.samples().to_vec();
        let mut shuf: Vec<_> = a.samples().to_vec();
        orig.sort_by(|x, y| x.ids.cmp(&y.ids));
        shuf.sort_by(|x, y| x.ids.cmp(&y.ids));
        assert_eq!(orig, shuf);
    }

    #[test]
    fn histogram_sums_to_len() {
        let ds = text_ds();
        let hist = ds.label_histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist.iter().sum::<usize>(), ds.len());
        assert!(hist.iter().all(|&c| c > 0), "degenerate labels {hist:?}");
    }

    #[test]
    fn split_preserves_order_and_counts() {
        let ds = text_ds();
        let (a, b) = ds.split_at(10);
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 40);
        assert_eq!(a.samples()[0], ds.samples()[0]);
        assert_eq!(b.samples()[0], ds.samples()[10]);
    }

    #[test]
    fn batches_cover_everything() {
        let ds = text_ds();
        let total: usize = ds.batches(8).map(<[Sample]>::len).sum();
        assert_eq!(total, 50);
        let sizes: Vec<usize> = ds.batches(8).map(<[Sample]>::len).collect();
        assert_eq!(sizes.last(), Some(&2));
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 8));
    }

    #[test]
    #[should_panic(expected = "split 99 beyond")]
    fn split_checks_bounds() {
        let _ = text_ds().split_at(99);
    }
}
