//! Plain-text rendering of schedules.
//!
//! A materialised [`Schedule`] is much easier to review as a few lines of
//! text — this renderer draws the Fig. 9 schedule in the
//! `accelerator_tour` example.

use crate::sched::Schedule;

/// Renders a token-parallel schedule as one line per round:
/// `round 3: load k2,k7 -> q0:k2 q1:k2 q3:k7`.
pub fn render_schedule(schedule: &Schedule) -> String {
    let mut out = String::new();
    for (i, round) in schedule.rounds.iter().enumerate() {
        let loads: Vec<String> = round.loads.iter().map(|k| format!("k{k}")).collect();
        let assigns: Vec<String> = round
            .assignments
            .iter()
            .map(|(q, k)| format!("q{q}:k{k}"))
            .collect();
        out.push_str(&format!(
            "round {:>2}: load {:<12} -> {}\n",
            i + 1,
            loads.join(","),
            assigns.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::locality_aware_schedule;

    #[test]
    fn schedule_render_mentions_every_round() {
        let sel = vec![
            vec![0u32, 1, 2],
            vec![1, 2, 3],
            vec![1, 4, 5],
            vec![2, 3, 4],
        ];
        let s = locality_aware_schedule(&sel);
        let text = render_schedule(&s);
        assert_eq!(text.lines().count(), s.rounds.len());
        assert!(text.contains("q0:"));
        assert!(text.contains("load"));
    }
}
