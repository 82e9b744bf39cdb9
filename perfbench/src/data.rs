//! Workload inputs, all derived from the `--seed` argument.

use fm_core::Record;
use fm_datagen::{
    generate_customers, make_inputs, ErrorModel, ErrorSpec, GeneratorConfig, D2_PROBS,
};

/// Seed of the reference relation, the same in every run. As in the
/// paper's experiments the reference stays put and the inputs vary: which
/// frequent tokens cross the ETI's stop-token threshold changes with the
/// relation's seed, and moved the lookup cost of a 50k relation by 15%
/// from seed to seed.
const REFERENCE_SEED: u64 = 2003;

/// A reference relation and erroneous inputs with their seed tuples.
pub struct Corpus {
    pub reference: Vec<Record>,
    pub inputs: Vec<Record>,
    /// `targets[i]` indexes the reference tuple `inputs[i]` was made from.
    pub targets: Vec<usize>,
}

impl Corpus {
    /// `size` Customer tuples and `inputs` D2 Type-I erroneous tuples made
    /// from them under `seed`.
    pub fn new(size: usize, inputs: usize, seed: u64) -> Corpus {
        let reference = generate_customers(&GeneratorConfig::new(size, REFERENCE_SEED));
        let spec = ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, seed ^ 0x05ee_d1d2);
        let dataset = make_inputs(&reference, inputs, &spec);
        Corpus {
            reference,
            inputs: dataset.inputs,
            targets: dataset.targets,
        }
    }

    /// The tid the matcher assigns to `reference[targets[i]]` (builds
    /// number tuples from 1 in input order).
    pub fn target_tid(&self, i: usize) -> u32 {
        u32::try_from(self.targets[i] + 1).expect("reference fits u32 tids")
    }

    /// Bytes of user data in the reference relation.
    pub fn reference_bytes(&self) -> u64 {
        self.reference.iter().map(record_bytes).sum()
    }
}

/// Fresh Customer tuples for reference maintenance, disjoint in seed from
/// the relation they are inserted into.
pub fn fresh_tuples(count: usize, seed: u64) -> Vec<Record> {
    generate_customers(&GeneratorConfig::new(count, seed.wrapping_add(0x9e37_79b9)))
}

/// Bytes of user data in one record (the attribute strings).
pub fn record_bytes(record: &Record) -> u64 {
    record
        .values()
        .iter()
        .map(|v| v.as_ref().map_or(0, |s| s.len() as u64))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte serialisation of records, for determinism checks.
    fn fingerprint(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        for record in records {
            for value in record.values() {
                match value {
                    Some(s) => {
                        out.push(1);
                        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    }
                    None => out.push(0),
                }
            }
            out.push(0xff);
        }
        out
    }

    fn bytes(seed: u64) -> Vec<u8> {
        let corpus = Corpus::new(500, 100, seed);
        let mut out = fingerprint(&corpus.reference);
        out.extend(fingerprint(&corpus.inputs));
        out.extend(corpus.targets.iter().flat_map(|t| t.to_le_bytes()));
        out.extend(fingerprint(&fresh_tuples(50, seed)));
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(bytes(11), bytes(11));
        assert_ne!(bytes(11), bytes(12));
    }
}
