//! Sample generators for the five synthetic benchmarks.
//!
//! All generators share a token-id convention:
//!
//! * `0` — separator (`SEP`);
//! * `1` — question marker (`QUERY`);
//! * `2` — recall marker (`RECALL`, LM only);
//! * `3` — copy marker (`COPY`, LM only);
//! * `4..16` — structure symbols (keys, markers, topics, sentiment);
//! * `16..vocab` — filler tokens carrying no label information.
//!
//! Every task's label depends on a handful of *distant token pairs*, so a
//! model that prunes weak attention keeps exactly the edges that matter.

use crate::{Sample, TaskSpec};
use dota_tensor::rng::SeededRng;

const SEP: usize = 0;
const QUERY: usize = 1;
const RECALL: usize = 2;
const COPY: usize = 3;
const SYM_BASE: usize = 4;
const FILLER_BASE: usize = 16;

fn filler(spec: &TaskSpec, rng: &mut SeededRng) -> usize {
    let base = FILLER_BASE.max(spec.structure_tokens());
    base + rng.below(spec.vocab_size - base)
}

/// QA: the sequence opens with `QUERY q`; somewhere in the body sits a
/// composite *fact token* `fact(q, answer)` for that question (among
/// distractor facts about other questions). The label is the answer encoded
/// in the matching fact. Solving it requires one precise long-range
/// attention hop from the question to its distant fact — the SQuAD-like
/// lookup dependency.
///
/// Token layout (see `qa_fact_token`): questions at `SYM_BASE..+n_keys`,
/// facts at `SYM_BASE + n_keys + q*n_classes + answer`.
pub fn qa(spec: &TaskSpec, rng: &mut SeededRng) -> Sample {
    let n = spec.seq_len;
    let n_keys = QA_KEYS;
    let mut ids: Vec<usize> = (0..n).map(|_| filler(spec, rng)).collect();

    let q = rng.below(n_keys);
    ids[0] = QUERY;
    ids[1] = SYM_BASE + q;

    let label = rng.below(spec.n_classes);
    // Plant the true fact and one distractor fact at distinct positions.
    let slots = rng.sample_indices(n - 4, 2);
    ids[4 + slots[0] % (n - 4)] = qa_fact_token(spec, q, label);
    let mut dq = rng.below(n_keys);
    if dq == q {
        dq = (dq + 1) % n_keys;
    }
    let d_pos = 4 + slots[1] % (n - 4);
    ids[d_pos] = qa_fact_token(spec, dq, rng.below(spec.n_classes));
    // Ensure the distractor did not overwrite the true fact.
    if slots[0] % (n - 4) == slots[1] % (n - 4) {
        ids[4 + slots[0] % (n - 4)] = qa_fact_token(spec, q, label);
    }
    Sample { ids, label }
}

/// Number of distinct question symbols in the QA task.
pub const QA_KEYS: usize = 4;

/// The composite fact token for `(question, answer)`.
pub(crate) fn qa_fact_token(spec: &TaskSpec, question: usize, answer: usize) -> usize {
    SYM_BASE + QA_KEYS + question * spec.n_classes + answer
}

/// Image: a mostly-dark "pixel" sequence with one bright class marker at a
/// random position plus a distractor "dim" marker; the label is the bright
/// marker's identity. Classifying requires locating one salient distant
/// pixel among noise (the LRA-image long-range dependency).
pub fn image(spec: &TaskSpec, rng: &mut SeededRng) -> Sample {
    let n = spec.seq_len;
    let mut ids: Vec<usize> = (0..n).map(|_| filler(spec, rng)).collect();
    let label = rng.below(spec.n_classes);
    let distractor = spec.n_classes + rng.below(8 - spec.n_classes.min(7));
    let pos = rng.sample_indices(n, 2);
    ids[pos[0]] = SYM_BASE + label;
    ids[pos[1]] = SYM_BASE + distractor;
    Sample { ids, label }
}

/// Text: a few salient sentiment tokens buried in filler; the label is the
/// majority sentiment. Queries must locate the sparse salient positions.
pub fn text(spec: &TaskSpec, rng: &mut SeededRng) -> Sample {
    const POS: usize = SYM_BASE;
    const NEG: usize = SYM_BASE + 1;
    let n = spec.seq_len;
    let mut ids: Vec<usize> = (0..n).map(|_| filler(spec, rng)).collect();
    // Odd total count guarantees a strict majority; a wide margin
    // (total-1 vs 1) keeps the task learnable by the tiny test models
    // while preserving the sparse-salient-token structure.
    let total = 5.min(n / 4) | 1;
    let label = rng.below(2);
    let majority = total - 1;
    let minority = total - majority;
    let positions = rng.sample_indices(n, total);
    for (i, &p) in positions.iter().enumerate() {
        let sentiment = if i < majority {
            if label == 1 {
                POS
            } else {
                NEG
            }
        } else if label == 1 {
            NEG
        } else {
            POS
        };
        ids[p] = sentiment;
        let _ = minority;
    }
    Sample { ids, label }
}

/// Number of distinct topic symbols in the Retrieval task.
pub const RETRIEVAL_TOPICS: usize = 4;

/// The composite fact token asserting `(topic, polarity)` in the left
/// document of the Retrieval task.
pub(crate) fn retrieval_fact_token(topic: usize, polarity: usize) -> usize {
    SYM_BASE + RETRIEVAL_TOPICS + topic * 2 + polarity
}

/// Retrieval: two documents separated by `SEP`. The left document contains
/// a fact about one topic (a composite `(topic, polarity)` token, plus a
/// distractor fact about another topic); the right document poses `QUERY
/// topic`. The label is the queried topic's polarity — deciding it
/// requires one precise attention hop *across the separator* from the query
/// to the matching fact, the AAN citation-link dependency. (The paper's
/// real task intersects topic sets; same-different set matching is beyond
/// the tiny trainable models used here, so this lookup variant keeps the
/// long-range cross-document edge that detection must preserve.)
pub fn retrieval(spec: &TaskSpec, rng: &mut SeededRng) -> Sample {
    let n = spec.seq_len;
    let mid = n / 2;
    let mut ids: Vec<usize> = (0..n).map(|_| filler(spec, rng)).collect();
    ids[mid] = SEP;

    let topic = rng.below(RETRIEVAL_TOPICS);
    let label = rng.below(2);
    // True fact and a distractor fact about a different topic, at random
    // positions in the left document.
    let pos = rng.sample_indices(mid, 2);
    ids[pos[0]] = retrieval_fact_token(topic, label);
    let other = (topic + 1 + rng.below(RETRIEVAL_TOPICS - 1)) % RETRIEVAL_TOPICS;
    ids[pos[1]] = retrieval_fact_token(other, rng.below(2));

    // The query in the right document.
    ids[mid + 1] = QUERY;
    ids[mid + 2] = SYM_BASE + topic;
    Sample { ids, label }
}

/// LM: a random token stream with a planted copy-recall pattern — `COPY x`
/// early, `RECALL` late, and the token after `RECALL` is `x`. The payload
/// `x` is drawn from a *quoted* vocabulary range that appears nowhere else
/// in the sequence, so predicting it requires one precise long-range
/// attention edge (from the recall point back to the quoted token); all
/// other positions are locally random (irreducible entropy).
pub fn lm(spec: &TaskSpec, rng: &mut SeededRng) -> Sample {
    let n = spec.seq_len;
    // Split the symbol space: quoted payload range vs filler range.
    let n_syms = spec.vocab_size - SYM_BASE;
    let n_quoted = n_syms / 2;
    let filler_base = SYM_BASE + n_quoted;
    let n_fillers = spec.vocab_size - filler_base;
    let mut ids: Vec<usize> = (0..n).map(|_| filler_base + rng.below(n_fillers)).collect();
    let x = SYM_BASE + rng.below(n_quoted);
    // COPY in the first third, RECALL in the last third.
    let copy_pos = 1 + rng.below((n / 3).max(1));
    let recall_pos = (2 * n / 3) + rng.below((n / 3 - 2).max(1));
    ids[copy_pos] = COPY;
    ids[copy_pos + 1] = x;
    ids[recall_pos] = RECALL;
    ids[recall_pos + 1] = x;
    Sample { ids, label: 0 }
}

/// Index of the predictable LM position (the token after `RECALL`), used to
/// score copy-recall accuracy separately from raw perplexity.
pub fn lm_recall_position(ids: &[usize]) -> Option<usize> {
    ids.iter()
        .rposition(|&t| t == RECALL)
        .filter(|&p| p + 1 < ids.len())
        .map(|p| p + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    fn spec(b: Benchmark) -> TaskSpec {
        TaskSpec::tiny(b, 48, 5)
    }

    #[test]
    fn qa_plants_matching_fact() {
        let s = spec(Benchmark::Qa);
        let mut rng = SeededRng::new(1);
        for _ in 0..50 {
            let sample = qa(&s, &mut rng);
            assert_eq!(sample.ids[0], QUERY);
            let q = sample.ids[1] - SYM_BASE;
            let want = qa_fact_token(&s, q, sample.label);
            assert!(
                sample.ids[2..].contains(&want),
                "true fact missing: {sample:?}"
            );
            // No *conflicting* fact for the same question.
            for answer in 0..s.n_classes {
                if answer != sample.label {
                    assert!(!sample.ids[2..].contains(&qa_fact_token(&s, q, answer)));
                }
            }
        }
    }

    #[test]
    fn image_label_from_bright_marker() {
        let s = spec(Benchmark::Image);
        let mut rng = SeededRng::new(2);
        for _ in 0..50 {
            let sample = image(&s, &mut rng);
            // Exactly one bright (class) marker and one distractor.
            let bright: Vec<usize> = sample
                .ids
                .iter()
                .filter(|&&t| (SYM_BASE..SYM_BASE + s.n_classes).contains(&t))
                .map(|&t| t - SYM_BASE)
                .collect();
            assert_eq!(bright.len(), 1, "{sample:?}");
            assert_eq!(bright[0], sample.label);
            let distractors = sample
                .ids
                .iter()
                .filter(|&&t| (SYM_BASE + s.n_classes..SYM_BASE + 8).contains(&t))
                .count();
            assert_eq!(distractors, 1, "{sample:?}");
        }
    }

    #[test]
    fn text_majority_matches_label() {
        let s = spec(Benchmark::Text);
        let mut rng = SeededRng::new(3);
        for _ in 0..50 {
            let sample = text(&s, &mut rng);
            let pos = sample.ids.iter().filter(|&&t| t == SYM_BASE).count();
            let neg = sample.ids.iter().filter(|&&t| t == SYM_BASE + 1).count();
            assert_ne!(pos, neg, "tie should be impossible");
            assert_eq!(sample.label, usize::from(pos > neg));
        }
    }

    #[test]
    fn retrieval_fact_matches_query_and_label() {
        let s = spec(Benchmark::Retrieval);
        let mut rng = SeededRng::new(4);
        for _ in 0..50 {
            let sample = retrieval(&s, &mut rng);
            let mid = s.seq_len / 2;
            assert_eq!(sample.ids[mid], SEP);
            assert_eq!(sample.ids[mid + 1], QUERY);
            let topic = sample.ids[mid + 2] - SYM_BASE;
            // The left doc contains the queried topic's fact with the
            // labeled polarity, and no conflicting fact.
            let want = retrieval_fact_token(topic, sample.label);
            assert!(sample.ids[..mid].contains(&want), "{sample:?}");
            let conflict = retrieval_fact_token(topic, 1 - sample.label);
            assert!(!sample.ids[..mid].contains(&conflict), "{sample:?}");
        }
    }

    #[test]
    fn lm_recall_token_matches_copied() {
        let s = spec(Benchmark::Lm);
        let mut rng = SeededRng::new(5);
        for _ in 0..50 {
            let sample = lm(&s, &mut rng);
            let copy_pos = sample.ids.iter().position(|&t| t == COPY).unwrap();
            let recall_next = lm_recall_position(&sample.ids).unwrap();
            assert_eq!(sample.ids[recall_next], sample.ids[copy_pos + 1]);
            assert!(recall_next > copy_pos + 1, "recall must come after copy");
            // The dependency is long-range: at least a third of the
            // sequence apart.
            assert!(recall_next - copy_pos >= s.seq_len / 3 - 2);
        }
    }

    #[test]
    fn lm_recall_position_none_when_absent() {
        assert_eq!(lm_recall_position(&[4, 5, 6]), None);
        assert_eq!(lm_recall_position(&[4, RECALL]), None);
        assert_eq!(lm_recall_position(&[RECALL, 9]), Some(1));
    }
}
