//! Smoke mode: every workload, untraced and traced, on a few thousand
//! rows.  Each run must pass its output checks and print every metric
//! `BENCHMARK.json` names, with its unit; the traced run must also have
//! reconciled its spans against `Session::execute`.

use std::process::Command;

/// `BENCHMARK.json` with all whitespace removed (names, units and keys
/// hold none, so matching on the compact form is exact).
fn compact(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn metrics(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\":["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("{\"name\":\"")
        .skip(1)
        .map(|item| {
            let name = item[..item.find('"').expect("name ends")].to_string();
            let unit_at = item.find("\"unit\":\"").expect("unit") + 8;
            let unit =
                item[unit_at..unit_at + item[unit_at..].find('"').expect("unit ends")].to_string();
            (name, unit)
        })
        .collect()
}

fn workloads(spec: &str) -> Vec<String> {
    let start = spec.find("\"workloads\":[").expect("workloads");
    let body = &spec[start..];
    body[..body.find(']').expect("section ends")]
        .split("{\"name\":\"")
        .skip(1)
        .map(|item| item[..item.find('"').expect("name ends")].to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = compact(lines.next().expect("result line"));
    let config = compact(lines.next().expect("config line"));
    (config, result)
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = compact(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("read BENCHMARK.json"),
    );
    let names = workloads(&spec);
    assert_eq!(
        names,
        ["psi_select", "omega_select", "psi_join", "lexicon_edit"]
    );
    for w in &names {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (config, result) = run(w, trace);
            assert!(result.starts_with("{\"correct\":true,"), "{w}: {result}");
            assert!(result.contains("\"failed\":0,"), "{w}: {result}");
            for key in [
                "\"nproc\":",
                "\"parallel_workers\":",
                "\"batch_size\":",
                "\"wal_sync_mode\":",
                "\"pool_frames\":",
                "\"pages\":",
                "\"seed\":5",
            ] {
                assert!(config.contains(key), "{w}: stamp lacks {key}: {config}");
            }
            let expected = metrics(&spec, section);
            let emitted = result.matches("{\"value\":").count();
            assert_eq!(emitted, expected.len(), "{w} trace={trace}: {result}");
            for (name, unit) in expected {
                let at = result
                    .find(&format!("\"{name}\":{{\"value\":"))
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {name} missing"));
                let tail = &result[at..];
                let unit_field = format!("\"unit\":\"{unit}\"}}");
                assert!(
                    tail[..tail.find('}').expect("metric ends") + 1].ends_with(&unit_field),
                    "{w} trace={trace}: {name} lacks unit {unit}"
                );
            }
            if trace == 0 && w != "lexicon_edit" {
                assert!(
                    !config.contains("\"checked_samples\":0"),
                    "{w}: no output checks ran"
                );
            }
            if trace == 1 {
                // The reconciliation ran: the replay took measurable time
                // next to Session::execute.
                let at = result
                    .find("\"trace.overhead_ratio\":{\"value\":")
                    .expect("overhead")
                    + 32;
                let v: f64 = result[at..at + result[at..].find(',').expect("value ends")]
                    .parse()
                    .expect("number");
                assert!(v > 0.0, "{w}: trace reconciliation did not run");
            }
        }
    }
}
