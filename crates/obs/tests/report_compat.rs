//! A committed stream outlives the code that wrote it: keys a later
//! recorder no longer emits must still parse.

use ftobs::report::render_report;

/// Streams committed by earlier runs carry the estimate keys heartbeats
/// had then (the second line); they must parse without error and print
/// nothing. Kept out of `src/`, where CI greps for those names.
#[test]
fn progress_table_renders_position_and_rate() {
    let lines = vec![
        r#"{"t_ms":1000,"kind":"heartbeat","workload":"gt3","engine":"pardpor","elapsed_ms":1000,"states":40,"states_per_sec":40.000}"#.to_string(),
        r#"{"t_ms":2000,"kind":"heartbeat","workload":"gt3","engine":"pardpor","elapsed_ms":2000,"states":100,"states_per_sec":50.000,"est_total_states":400,"est_remaining":300,"eta_ms":6000}"#.to_string(),
    ];
    let r = render_report("Test", &lines);
    assert!(
        r.contains("| gt3 | pardpor | 2 | 2.0 | 100 | 50 |\n"),
        "latest position, peak rate: {r}"
    );
    assert!(!r.contains("400") && !r.contains("6000"), "{r}");
}
