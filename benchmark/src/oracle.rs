//! Plaintext model of the `employees` table. The benchmark applies every
//! op to it and to the system under test, and an op whose result differs
//! from the model's is a failed op.

use dasp_client::source::DecodedRow;
use dasp_client::Value;
use std::collections::{BTreeSet, HashMap};

/// One plaintext row: `employees(eid, name, salary, ssn)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emp {
    pub eid: u64,
    pub name: String,
    pub salary: u64,
    pub ssn: u64,
}

impl Emp {
    /// The row as the typed API takes it, in schema column order.
    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.eid),
            Value::Str(self.name.clone()),
            Value::Int(self.salary),
            Value::Int(self.ssn),
        ]
    }

    fn matches(&self, values: &[Value]) -> bool {
        matches!(
            values,
            [Value::Int(eid), Value::Str(name), Value::Int(salary), Value::Int(ssn)]
                if *eid == self.eid
                    && *name == self.name
                    && *salary == self.salary
                    && *ssn == self.ssn
        )
    }
}

#[derive(Debug, Default)]
pub struct Oracle {
    /// Client row id → row.
    rows: HashMap<u64, Emp>,
    /// `eid` is unique.
    id_of_eid: HashMap<u64, u64>,
    by_salary: BTreeSet<(u64, u64)>,
    salary_sum: u64,
}

impl Oracle {
    /// Record rows the system acknowledged under the given row ids.
    pub fn insert(&mut self, ids: &[u64], emps: &[Emp]) {
        for (&id, emp) in ids.iter().zip(emps) {
            self.id_of_eid.insert(emp.eid, id);
            self.by_salary.insert((emp.salary, id));
            self.salary_sum += emp.salary;
            self.rows.insert(id, emp.clone());
        }
    }

    /// Apply `UPDATE SET salary = new WHERE eid = x`; returns how many
    /// rows the system should report as updated.
    pub fn update_salary(&mut self, eid: u64, salary: u64) -> usize {
        let Some(&id) = self.id_of_eid.get(&eid) else {
            return 0;
        };
        let Some(row) = self.rows.get_mut(&id) else {
            return 0;
        };
        self.by_salary.remove(&(row.salary, id));
        self.by_salary.insert((salary, id));
        self.salary_sum = self.salary_sum - row.salary + salary;
        row.salary = salary;
        1
    }

    pub fn count(&self) -> u64 {
        self.rows.len() as u64
    }

    pub fn salary_sum(&self) -> u64 {
        self.salary_sum
    }

    /// Is `result` exactly what `SELECT * WHERE eid = x` must return?
    pub fn check_point(&self, eid: u64, result: &[DecodedRow]) -> bool {
        match (self.id_of_eid.get(&eid), result) {
            (None, []) => true,
            (Some(id), [(got_id, values)]) => {
                got_id == id && self.rows.get(id).is_some_and(|row| row.matches(values))
            }
            _ => false,
        }
    }

    /// Is `result` exactly what `SELECT * WHERE salary BETWEEN lo AND hi`
    /// must return: the same ids, each once, each with its values?
    pub fn check_range(&self, lo: u64, hi: u64, result: &[DecodedRow]) -> bool {
        let expected = self.by_salary.range((lo, 0)..=(hi, u64::MAX)).count();
        if result.len() != expected {
            return false;
        }
        let mut ids: Vec<u64> = result.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        // Same count, no duplicates, every row the model's and in range:
        // the id sets are equal.
        ids.len() == expected
            && result.iter().all(|(id, values)| {
                self.rows
                    .get(id)
                    .is_some_and(|row| (lo..=hi).contains(&row.salary) && row.matches(values))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp(eid: u64, salary: u64) -> Emp {
        Emp {
            eid,
            name: format!("N{}", char::from(b'A' + (eid % 26) as u8)),
            salary,
            ssn: eid * 7,
        }
    }

    fn loaded() -> Oracle {
        let mut o = Oracle::default();
        o.insert(&[1, 2, 3], &[emp(10, 100), emp(11, 200), emp(12, 300)]);
        o
    }

    #[test]
    fn insert_tracks_count_sum_and_lookup() {
        let o = loaded();
        assert_eq!(o.count(), 3);
        assert_eq!(o.salary_sum(), 600);
        assert!(o.check_point(11, &[(2, emp(11, 200).values())]));
        assert!(o.check_point(99, &[]));
    }

    #[test]
    fn point_check_rejects_wrong_id_value_or_cardinality() {
        let o = loaded();
        assert!(
            !o.check_point(11, &[(3, emp(11, 200).values())]),
            "wrong id"
        );
        assert!(
            !o.check_point(11, &[(2, emp(11, 201).values())]),
            "wrong value"
        );
        assert!(!o.check_point(11, &[]), "missing row");
        assert!(
            !o.check_point(99, &[(2, emp(11, 200).values())]),
            "phantom row"
        );
        let twice = vec![(2, emp(11, 200).values()), (2, emp(11, 200).values())];
        assert!(!o.check_point(11, &twice), "duplicate");
    }

    #[test]
    fn update_moves_the_row_in_the_salary_order() {
        let mut o = loaded();
        assert_eq!(o.update_salary(10, 250), 1);
        assert_eq!(o.update_salary(77, 1), 0, "unknown eid updates nothing");
        assert_eq!(o.count(), 3);
        assert_eq!(o.salary_sum(), 750);
        assert!(o.check_point(10, &[(1, emp(10, 250).values())]));
        assert!(
            !o.check_point(10, &[(1, emp(10, 100).values())]),
            "stale value"
        );
        // 200..=260 now holds rows 2 and 1; 100 is gone from the order.
        let hit = vec![(1, emp(10, 250).values()), (2, emp(11, 200).values())];
        assert!(o.check_range(200, 260, &hit));
        assert!(o.check_range(0, 150, &[]));
    }

    #[test]
    fn range_check_is_exact_set_equality() {
        let o = loaded();
        let both = vec![(2, emp(11, 200).values()), (1, emp(10, 100).values())];
        assert!(o.check_range(100, 200, &both), "order does not matter");
        assert!(!o.check_range(100, 300, &both), "a row is missing");
        assert!(!o.check_range(100, 100, &both), "a row is extra");
        let dup = vec![(1, emp(10, 100).values()), (1, emp(10, 100).values())];
        assert!(!o.check_range(100, 200, &dup), "same row twice");
        let wrong = vec![(2, emp(11, 200).values()), (1, emp(10, 101).values())];
        assert!(!o.check_range(100, 200, &wrong), "wrong value");
    }
}
