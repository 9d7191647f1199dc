//! Golden-diagnostic tests: for each invariant the analyzer checks, a
//! known-bad plan (a well-prepared plan with one field corrupted) must
//! produce exactly the expected stable code — and the uncorrupted plan
//! must be clean. This pins both the analyzer's sensitivity and its codes.

use p4update_analysis::{analyze, analyze_batch, is_clean, AnalysisContext, Code, Severity};
use p4update_core::{prepare_update, PreparedUpdate, Strategy};
use p4update_net::{FlowId, FlowUpdate, NodeId, Path, Version};

fn path(ids: &[u32]) -> Path {
    Path::new(ids.iter().map(|&i| NodeId(i)).collect())
}

/// The paper's Fig. 1 migration: 3 segments, one backward — the richest
/// small plan (exercises the DL machinery).
fn fig1_update() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(path(&[0, 4, 2, 7])),
        path(&[0, 1, 2, 3, 4, 5, 6, 7]),
        1.0,
    )
}

fn fig1_plan() -> PreparedUpdate {
    prepare_update(&fig1_update(), Version(2), Strategy::Auto)
}

/// Codes (deduplicated, sorted) of all error-severity findings.
fn error_codes(plan: &PreparedUpdate) -> Vec<Code> {
    let mut codes: Vec<Code> = analyze(plan, None)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

#[test]
fn baseline_plan_is_clean() {
    assert!(analyze(&fig1_plan(), None).is_empty());
}

#[test]
fn corrupt_distance_label() {
    let mut plan = fig1_plan();
    plan.uims[4].1.new_distance = 9;
    assert_eq!(error_codes(&plan), vec![Code::LabelChainBroken]);
}

#[test]
fn corrupt_next_hop() {
    let mut plan = fig1_plan();
    plan.uims[2].1.next_hop = Some(NodeId(0));
    assert_eq!(error_codes(&plan), vec![Code::UimChainMismatch]);
}

#[test]
fn corrupt_upstream() {
    let mut plan = fig1_plan();
    plan.uims[2].1.upstream = None;
    assert_eq!(error_codes(&plan), vec![Code::UimChainMismatch]);
}

#[test]
fn stale_uim_version() {
    let mut plan = fig1_plan();
    plan.uims[1].1.version = Version(1);
    assert_eq!(error_codes(&plan), vec![Code::VersionNotNewer]);
}

#[test]
fn reserved_version_zero() {
    let plan = prepare_update(&fig1_update(), Version(0), Strategy::Auto);
    assert_eq!(error_codes(&plan), vec![Code::VersionNotNewer]);
}

#[test]
fn version_must_exceed_installed() {
    let plan = prepare_update(&fig1_update(), Version(3), Strategy::Auto);
    let ctx = AnalysisContext::default().install(FlowId(0), Version(3));
    let diags = p4update_analysis::analyze_with(&plan, &ctx);
    assert!(diags.iter().any(|d| d.code == Code::VersionNotNewer));
}

#[test]
fn missing_uim() {
    let mut plan = fig1_plan();
    plan.uims.pop(); // drop the ingress indication
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn duplicated_uim_target() {
    let mut plan = fig1_plan();
    let dup = plan.uims[3];
    plan.uims[4] = dup;
    assert!(error_codes(&plan).contains(&Code::UimSetMismatch));
}

#[test]
fn swapped_uim_order() {
    let mut plan = fig1_plan();
    plan.uims.swap(0, 1); // egress no longer first
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn uim_for_foreign_node() {
    let mut plan = fig1_plan();
    plan.uims[3].0 = NodeId(42);
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::UimSetMismatch), "{codes:?}");
}

#[test]
fn wrong_flow_in_uim() {
    let mut plan = fig1_plan();
    plan.uims[5].1.flow = FlowId(99);
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn wrong_kind_in_uim() {
    let mut plan = fig1_plan();
    plan.uims[5].1.kind = p4update_messages::UpdateKind::Single;
    assert_eq!(error_codes(&plan), vec![Code::UimSetMismatch]);
}

#[test]
fn unusable_flow_size() {
    let mut plan = fig1_plan();
    plan.uims[0].1.flow_size = f64::NAN;
    // The wire decoder also refuses a NaN flow size, so two codes fire.
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::BadFlowSize), "{codes:?}");

    let mut plan = fig1_plan();
    plan.uims[0].1.flow_size = 2.0; // disagrees with the update's bound
    assert_eq!(error_codes(&plan), vec![Code::BadFlowSize]);
}

// ---- segmentation (P4U005/P4U006/P4U007), including the DL backward
// ---- segment edge cases.

#[test]
fn dropped_gateway() {
    let mut plan = fig1_plan();
    // Remove gateway v2 and merge its two segments into one — tiling still
    // holds, so the specific finding is the missing shared node.
    plan.segmentation.gateways.retain(|&g| g != NodeId(2));
    let s0 = plan.segmentation.segments[0].clone();
    let s1 = plan.segmentation.segments[1].clone();
    let merged = p4update_core::Segment {
        ingress_gateway: s0.ingress_gateway,
        egress_gateway: s1.egress_gateway,
        interior: {
            let mut v = s0.interior.clone();
            v.push(s0.egress_gateway);
            v.extend(&s1.interior);
            v
        },
        ingress_old_distance: s0.ingress_old_distance,
        egress_old_distance: s1.egress_old_distance,
    };
    plan.segmentation.segments.splice(0..2, [merged]);
    assert_eq!(error_codes(&plan), vec![Code::SegmentationMalformed]);
}

#[test]
fn interior_node_on_old_path() {
    let mut plan = fig1_plan();
    // Claim old-path node v4 is an interior of segment 0.
    plan.segmentation.segments[0].interior.push(NodeId(4));
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::SegmentationMalformed), "{codes:?}");
}

#[test]
fn backward_segment_distance_corruption_flips_direction() {
    let mut plan = fig1_plan();
    // Fig. 1's middle segment (v2 -> v4) is backward: D_o = 1 -> 2. Forging
    // the ingress distance to 5 makes direction() report Forward — the
    // dangerous misclassification (the segment would update before its
    // downstream segments and can transiently loop). The analyzer must see
    // both the forged distance and the flipped class.
    let s = &mut plan.segmentation.segments[1];
    assert_eq!(s.direction(), p4update_core::SegmentDir::Backward);
    s.ingress_old_distance = 5;
    assert_eq!(s.direction(), p4update_core::SegmentDir::Forward);
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::OldDistanceMismatch), "{codes:?}");
    assert!(
        codes.contains(&Code::SegmentDirectionMisclassified),
        "{codes:?}"
    );
}

#[test]
fn forward_segment_distance_corruption_without_flip() {
    let mut plan = fig1_plan();
    // Segment 0 (v0 -> v2) is forward: D_o = 3 -> 1. Forging 3 to 7 keeps
    // the class Forward; only the distance mismatch fires.
    plan.segmentation.segments[0].ingress_old_distance = 7;
    assert_eq!(error_codes(&plan), vec![Code::OldDistanceMismatch]);
}

#[test]
fn fresh_deployment_synthetic_distances_are_checked() {
    let u = FlowUpdate::new(FlowId(1), None, path(&[0, 2, 5]), 1.0);
    let mut plan = prepare_update(&u, Version(1), Strategy::Auto);
    assert!(analyze(&plan, None).is_empty());
    // The fresh-deployment convention: egress 0, ingress u32::MAX.
    plan.segmentation.segments[0].egress_old_distance = 3;
    let codes = error_codes(&plan);
    assert!(codes.contains(&Code::OldDistanceMismatch), "{codes:?}");
}

// ---- advisory and batch-level codes.

#[test]
fn forced_single_layer_is_an_advisory() {
    let plan = prepare_update(&fig1_update(), Version(2), Strategy::ForceSingle);
    let diags = analyze(&plan, None);
    // Two advisories: backward segment present, and 8 > 5 nodes.
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.code == Code::MechanismAdvisory));
    assert!(is_clean(&diags));
}

#[test]
fn batch_with_non_increasing_versions() {
    let u = fig1_update();
    let plans = vec![
        prepare_update(&u, Version(2), Strategy::Auto),
        prepare_update(&u, Version(2), Strategy::Auto),
    ];
    let diags = analyze_batch(&plans, None);
    assert!(diags.iter().any(|d| d.code == Code::BatchVersionConflict));
}

#[test]
fn waits_for_cycle_between_swapping_flows() {
    let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
    let b = FlowUpdate::new(FlowId(2), Some(path(&[0, 2, 3])), path(&[0, 1, 3]), 1.0);
    let plans = vec![
        prepare_update(&a, Version(2), Strategy::Auto),
        prepare_update(&b, Version(2), Strategy::Auto),
    ];
    let diags = analyze_batch(&plans, None);
    let cycles: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::WaitsForCycle)
        .collect();
    assert_eq!(cycles.len(), 1, "{diags:?}");
    assert_eq!(cycles[0].severity, Severity::Warning);
}

#[test]
fn independent_updates_have_no_cycle() {
    let a = FlowUpdate::new(FlowId(1), Some(path(&[0, 1, 3])), path(&[0, 2, 3]), 1.0);
    let b = FlowUpdate::new(FlowId(2), Some(path(&[4, 5, 7])), path(&[4, 6, 7]), 1.0);
    let plans = vec![
        prepare_update(&a, Version(2), Strategy::Auto),
        prepare_update(&b, Version(2), Strategy::Auto),
    ];
    assert!(analyze_batch(&plans, None).is_empty());
}

#[test]
fn diagnostics_render_with_stable_codes() {
    let mut plan = fig1_plan();
    plan.uims[4].1.new_distance = 9;
    let diags = analyze(&plan, None);
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("error[P4U001]: f0: at v3:"),
        "{rendered}"
    );
}
