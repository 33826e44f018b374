//! Experiment E9 (correctness half) — the PDP over the `storage` crate's
//! persistent retained ADI: identical decisions to the in-memory
//! backend, and restart *without* audit-trail replay.

use msod::{RoleRef, ShardedAdi};
use permis::{DecisionRequest, DecisionService};
use storage::PersistentAdi;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

/// A service whose retained ADI is the single journal at `path`.
fn journaled(policy_xml: &str, path: &std::path::Path) -> DecisionService<PersistentAdi> {
    let policy = policy::parse_rbac_policy(policy_xml).unwrap();
    let journal = PersistentAdi::open(path).unwrap();
    DecisionService::from_shards(policy, b"k".to_vec(), ShardedAdi::from_shards(vec![journal]))
}

fn temp_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("msod-padi-{}-{tag}.log", std::process::id()))
}

#[test]
fn persistent_backend_matches_memory_backend() {
    let path = temp_file("match");
    let _ = std::fs::remove_file(&path);
    let cfg = WorkloadConfig {
        users: 15,
        contexts: 4,
        role_pairs: 2,
        requests: 400,
        terminate_percent: 5,
    };
    let policy_xml = workload_policy_xml(&cfg);

    let mem_pdp = DecisionService::from_xml(&policy_xml, b"k".to_vec()).unwrap();
    let per_pdp = journaled(&policy_xml, &path);

    for (i, req) in gen_requests(&cfg, 3).iter().enumerate() {
        assert_eq!(
            mem_pdp.decide(req).is_granted(),
            per_pdp.decide(req).is_granted(),
            "divergence at request {i}"
        );
    }
    assert_eq!(mem_pdp.adi().snapshot(), per_pdp.adi().snapshot());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restart_without_trail_replay() {
    let path = temp_file("restart");
    let _ = std::fs::remove_file(&path);
    let policy_xml = r#"<RBACPolicy id="p" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/><Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let act = |pdp: &DecisionService<PersistentAdi>, user: &str, role: &str, ts: u64| {
        pdp.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", role)],
            "work",
            "res",
            "Proc=1".parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    {
        let pdp = journaled(policy_xml, &path);
        assert!(act(&pdp, "alice", "A", 1));
        pdp.sync_adi().unwrap();
    }
    // Fresh PDP process: the retained ADI comes straight off disk — no
    // TrailStore attached, no recover() call, no trail replay.
    let pdp = journaled(policy_xml, &path);
    assert_eq!(pdp.adi().len(), 1);
    assert!(!act(&pdp, "alice", "B", 100), "history survived the restart");
    assert!(act(&pdp, "bob", "B", 101));
    let _ = std::fs::remove_file(&path);
}
