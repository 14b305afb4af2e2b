      PROGRAM RANDP
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL QA(128), QB(128), QC(128), WT(128)
      REAL S1, S2, T1
      INTEGER I1, I2, I3, K9
      DO I1 = 1, 128
        QA(I1) = 0.5 * I1
        QB(I1) = 0.125 * I1 + 1.0
        QC(I1) = 0.0
        WT(I1) = 0.0
      END DO
      S1 = 0.0
      S2 = 1.0
      K9 = 0
        DO I1 = 1, 15
          WT(MOD(I1, 7) + 1) = WT(MOD(I1, 7) + 1) + QA(I1)
        END DO
        DO I1 = 3, 16
        DO I2 = 3, 12
            QC(I2) = 1.6 + 0.4 + QA(4*I2 - 0) - QA(2*I2 + 1)
          END DO
        END DO
        T1 = 1.1 + 2.8 * 3.7 + S2
        DO I1 = 3, 11
          QB(I1 + 1) = QB(I1) + 0.01 * I1 * 0.01 * I1 - 0.01 * I1
          DO I2 = 2, 14
            QA(I2 + (I1 - 3) * 5) = QA(I2 + (I1 - 3) * 5) - QB(I2 + 15)
            QB(I2 + (I1 - 3) * 5) = 1.1
          END DO
        END DO
      RESULT = S1 + S2 + K9
      DO I1 = 1, 128
        RESULT = RESULT + QA(I1) + QB(I1) * 0.5 + QC(I1) * 0.25 + WT(I1)
      END DO
      END
