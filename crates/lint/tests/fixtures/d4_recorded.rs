use spotlake_obs::{names, Registry};

pub fn record_query(registry: &Registry) {
    registry.counter_add(names::STORE_QUERIES_TOTAL, &[], 1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_naming_a_family_records_nothing() {
        let _ = spotlake_obs::names::WAL_DEAD;
    }
}
