//! Verdict correctness: every served verdict must equal the one-shot
//! `DetectionSystem::detect` on the same waveform.

use mvp_ears::Detection;
use mvp_serve::{Verdict, VerdictKind};

fn same_f64s<'a>(a: impl IntoIterator<Item = &'a f64>, b: &[f64]) -> bool {
    let a: Vec<u64> = a.into_iter().map(|x| x.to_bits()).collect();
    a.len() == b.len() && a.iter().zip(b).all(|(&x, y)| x == y.to_bits())
}

/// Checks a served verdict against the
/// reference detection: full verdict, same target transcript, bit-equal
/// scores, same fused flag and modality features, same classification.
pub fn verdict_matches(v: &Verdict, d: &Detection) -> Result<(), String> {
    if v.kind != VerdictKind::Full {
        return Err(format!("verdict kind {:?}, expected Full", v.kind));
    }
    if v.early_exit {
        return Err("early-exit verdict compared as a full verdict".into());
    }
    if v.target_transcription.as_deref() != Some(d.target_transcription.as_str()) {
        return Err(format!(
            "target transcript {:?} != reference {:?}",
            v.target_transcription, d.target_transcription
        ));
    }
    let scores: Option<Vec<f64>> = v.scores.iter().copied().collect();
    if !scores.is_some_and(|s| same_f64s(&s, &d.scores)) {
        return Err(format!("scores {:?} != reference {:?}", v.scores, d.scores));
    }
    if v.fused != d.fused {
        return Err(format!("fused flag {} != reference {}", v.fused, d.fused));
    }
    if d.fused && !same_f64s(v.modalities.iter().flat_map(|m| &m.features), &d.modality_features) {
        return Err("modality features differ from the reference".into());
    }
    if v.is_adversarial != Some(d.is_adversarial) {
        return Err(format!("verdict {:?} != reference {}", v.is_adversarial, d.is_adversarial));
    }
    Ok(())
}

/// Checks the auxiliary transcripts an audit record carries against the
/// reference's.
pub fn aux_matches(audit_aux: &[Option<String>], d: &Detection) -> Result<(), String> {
    let same = audit_aux.len() == d.auxiliary_transcriptions.len()
        && audit_aux.iter().zip(&d.auxiliary_transcriptions).all(|(a, r)| a.as_ref() == Some(r));
    if same {
        Ok(())
    } else {
        Err(format!(
            "auxiliary transcripts {audit_aux:?} != reference {:?}",
            d.auxiliary_transcriptions
        ))
    }
}

/// Two verdicts for the same waveform must agree on everything but how
/// they were produced (cache, latency).
pub fn verdicts_agree(a: &Verdict, b: &Verdict) -> Result<(), String> {
    let same_scores = a.scores.len() == b.scores.len()
        && a.scores.iter().zip(&b.scores).all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits));
    let same_modalities = a.modalities.len() == b.modalities.len()
        && a.modalities.iter().zip(&b.modalities).all(|(x, y)| {
            x.kind == y.kind && x.scored == y.scored && same_f64s(&x.features, &y.features)
        });
    if a.kind == b.kind
        && a.is_adversarial == b.is_adversarial
        && a.target_transcription == b.target_transcription
        && a.fused == b.fused
        && a.early_exit == b.early_exit
        && same_scores
        && same_modalities
    {
        Ok(())
    } else {
        Err(format!("repeated verdict differs: {a:?} vs {b:?}"))
    }
}

/// Two one-shot detections of the same waveform must be identical.
pub fn detections_agree(a: &Detection, b: &Detection) -> Result<(), String> {
    if a.is_adversarial == b.is_adversarial
        && a.target_transcription == b.target_transcription
        && a.auxiliary_transcriptions == b.auxiliary_transcriptions
        && same_f64s(&a.scores, &b.scores)
        && same_f64s(&a.modality_features, &b.modality_features)
        && a.fused == b.fused
    {
        Ok(())
    } else {
        Err(format!("repeated detection differs: {a:?} vs {b:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn reference() -> Detection {
        Detection {
            is_adversarial: true,
            scores: vec![0.25, 0.5, 0.125],
            target_transcription: "open the door".into(),
            auxiliary_transcriptions: vec!["the dog".into(), "a door".into(), "".into()],
            modality_features: Vec::new(),
            fused: false,
            early_exit: false,
        }
    }

    fn served(d: &Detection) -> Verdict {
        Verdict {
            is_adversarial: Some(d.is_adversarial),
            kind: VerdictKind::Full,
            from_cache: false,
            scores: d.scores.iter().copied().map(Some).collect(),
            target_transcription: Some(d.target_transcription.clone()),
            modalities: Vec::new(),
            fused: false,
            early_exit: false,
            latency: Duration::from_millis(3),
        }
    }

    #[test]
    fn identical_verdict_passes() {
        let d = reference();
        assert_eq!(verdict_matches(&served(&d), &d), Ok(()));
    }

    #[test]
    fn altered_verdict_fires() {
        let d = reference();
        let mut flipped = served(&d);
        flipped.is_adversarial = Some(false);
        assert!(verdict_matches(&flipped, &d).is_err());

        let mut nudged = served(&d);
        nudged.scores[1] = Some(0.5 + f64::EPSILON);
        assert!(verdict_matches(&nudged, &d).is_err());

        let mut missing = served(&d);
        missing.scores[2] = None;
        assert!(verdict_matches(&missing, &d).is_err());

        let mut retext = served(&d);
        retext.target_transcription = Some("open the doors".into());
        assert!(verdict_matches(&retext, &d).is_err());

        let mut degraded = served(&d);
        degraded.kind = VerdictKind::Failed;
        assert!(verdict_matches(&degraded, &d).is_err());

        assert!(verdicts_agree(&served(&d), &flipped).is_err());
    }

    #[test]
    fn early_exit_is_not_a_full_verdict() {
        let d = reference();
        let mut early = served(&d);
        early.early_exit = true;
        assert!(verdict_matches(&early, &d).is_err());
    }

    #[test]
    fn aux_transcripts_must_match() {
        let d = reference();
        let aux: Vec<Option<String>> =
            d.auxiliary_transcriptions.iter().cloned().map(Some).collect();
        assert_eq!(aux_matches(&aux, &d), Ok(()));
        let mut off = aux.clone();
        off[0] = None;
        assert!(aux_matches(&off, &d).is_err());
    }

    #[test]
    fn repeated_detections_compare_bitwise() {
        let d = reference();
        assert_eq!(detections_agree(&d, &d.clone()), Ok(()));
        let mut e = d.clone();
        e.auxiliary_transcriptions[2] = "x".into();
        assert!(detections_agree(&d, &e).is_err());
    }
}
